//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in. The
// detector instruments every memory access and changes allocation
// behaviour, so numeric allocation assertions are meaningless under it.
const raceEnabled = true
