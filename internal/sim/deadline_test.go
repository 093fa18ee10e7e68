package sim

import (
	"testing"

	"github.com/eadvfs/eadvfs/internal/task"
)

// FuzzDeadlineOrder drives the deadline-check heap through fuzzer-chosen
// push/pop interleavings over a small set of deadline times, so ties are
// the rule, and checks every pop against a reference that keeps pending
// checks in scheduling order and pops the first one with the least time:
// a stable sort by time. Checks that tie on time must fire in the order
// they were scheduled, which is what the engine's event order demands.
func FuzzDeadlineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})             // three ties, drained
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 1, 1}) // ties pushed after a pop
	f.Add([]byte{6, 4, 2, 0, 0, 2, 4, 6, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 2, 0, 4, 2, 1, 0, 2, 1, 6, 6, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		var h deadlineHeap
		var want []deadlineCheck // pending checks in scheduling order
		var seq uint64
		for _, op := range ops {
			if op&1 == 0 { // push at one of four times
				c := deadlineCheck{t: float64(op>>1&3) / 2, seq: seq, job: &task.Job{Seq: int(seq)}}
				seq++
				h.push(c)
				want = append(want, c)
			} else if len(h) > 0 {
				first := 0
				for i := range want {
					if want[i].t < want[first].t {
						first = i
					}
				}
				if got := h.pop(); got != want[first].job {
					t.Fatalf("popped check %d, want %d (t=%v)", got.Seq, want[first].job.Seq, want[first].t)
				}
				want = append(want[:first], want[first+1:]...)
			}
			if len(h) != len(want) {
				t.Fatalf("heap holds %d checks, want %d", len(h), len(want))
			}
			for _, c := range h[len(h):cap(h)] {
				if c.job != nil {
					t.Fatal("a popped slot still references its job")
				}
			}
		}
	})
}
