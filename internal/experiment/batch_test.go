package experiment

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sim"
)

// TestWarmBisectionMatchesCold pins the MinCapacitySearcher contract: over
// the Table 1 utilization grid, the warm-start search (shared runner,
// first-miss early exit) returns exactly the capacities and ok flags
// of the cold MinCapacitySearch it replaces.
func TestWarmBisectionMatchesCold(t *testing.T) {
	s := DefaultSpec()
	s.Horizon = 1500
	s.Replications = 2
	policies := []string{"lsa", "ea-dvfs"}
	factories, err := s.Policies(policies)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.2, 0.4, 0.6, 0.8} {
		spec := s
		spec.Utilization = u
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < spec.Replications; r++ {
			rep, err := Replicate(spec, r)
			if err != nil {
				t.Fatal(err)
			}
			rep.PrepareSource(spec.Horizon)
			warm, err := NewMinCapacitySearcher(spec, rep, factories)
			if err != nil {
				t.Fatal(err)
			}
			for pi, name := range policies {
				coldC, coldOK, err := MinCapacitySearch(spec, rep, factories[pi], MinCapLo, MinCapMaxHi, MinCapTol)
				if err != nil {
					t.Fatal(err)
				}
				warmC, warmOK, err := warm.Search(pi, MinCapLo, MinCapMaxHi, MinCapTol)
				if err != nil {
					t.Fatal(err)
				}
				if warmC != coldC || warmOK != coldOK {
					t.Fatalf("u=%g rep=%d %s: warm search (%v, %v) != cold search (%v, %v)",
						u, r, name, warmC, warmOK, coldC, coldOK)
				}
			}
		}
	}
}

// TestSweepRealizesSolarOncePerReplication guards the AdoptSource fix and
// lazy preparation: a sweep must realize each replication's solar trace
// roughly once (one preparation plus short beyond-horizon tails from
// predictor lookahead), not once per (point, policy) cell. Before the
// AdoptSource fix the re-derived replications of a task-count sweep
// carried no master and every cell regenerated the full trace; with
// preparation moved to the workers, a cell that missed its replication's
// one-time preparation would do the same. The miss-rate sweep runs the
// shard runner's path, and MinCapacity one pair of searches per
// (replication, utilization) cell, every utilization adopting the
// replication's one prepared trace.
func TestSweepRealizesSolarOncePerReplication(t *testing.T) {
	s := DefaultSpec()
	s.Horizon = 800
	s.Replications = 2
	s.Capacities = []float64{300}
	policies := []string{"lsa", "ea-dvfs"}
	perRep := uint64(s.Horizon) + 10

	for _, tc := range []struct {
		name  string
		cells int // cells sharing each replication's trace, summed over replications
		preps int // trace preparations the sweep should make
		run   func() error
	}{
		{"tasks", 3 * len(policies) * s.Replications, s.Replications, func() error {
			_, err := TaskCountSweep(s, []float64{2, 4, 6}, policies)
			return err
		}},
		{"missrate", 4 * len(policies) * s.Replications, s.Replications, func() error {
			ms := s
			ms.Capacities = []float64{100, 300, 1000, 3000}
			_, err := RunSweep(context.Background(), "missrate", ms, policies)
			return err
		}},
		{"mincap", 2 * 2 * len(policies) * s.Replications, s.Replications, func() error {
			_, err := MinCapacity(s, []float64{0.4, 0.8}, policies)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := energy.SolarRealizations()
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			delta := energy.SolarRealizations() - before
			cells := uint64(tc.cells)
			// Per-replication realization plus a one-cell allowance for
			// lookahead tails; per-cell re-realization costs ~cells*perRep
			// units and lands far above this.
			limit := uint64(tc.preps)*perRep + cells*64
			t.Logf("realized %d units over %d cells (limit %d, regression ~%d)",
				delta, cells, limit, cells*perRep)
			if delta > limit {
				t.Fatalf("sweep realized %d solar units over %d cells — per-cell re-realization regressed (limit %d)",
					delta, cells, limit)
			}
		})
	}
}

// TestPreparedSourceFootprint pins the memory a prepared replication
// retains: its solar master realizes the trace through the horizon but
// keeps only the per-unit power table, 8 bytes per unit. The prefix-sum
// table is built only by prefix queries, which no default-path run makes,
// and the envelope factor lives in one process-wide table, so a prepared
// point's heap must stay well under 12 bytes per unit.
func TestPreparedSourceFootprint(t *testing.T) {
	s := DefaultSpec()
	const n = 16
	// Grow the shared envelope table first; it is not the replications'.
	energy.NewSolarModel(0).PowerAt(s.Horizon)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reps := make([]Replication, n)
	for i := range reps {
		var err error
		if reps[i], err = Replicate(s, i); err != nil {
			t.Fatal(err)
		}
		reps[i].PrepareSource(s.Horizon)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reps)

	units := float64(n * (int(s.Horizon) + 1))
	perUnit := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / units
	t.Logf("%d replications to horizon %v retain %.2f B per realized unit", n, s.Horizon, perUnit)
	if perUnit >= 12 {
		t.Fatalf("prepared replications retain %.2f B per realized unit, want < 12", perUnit)
	}
}

// sweepPeakHeap runs a whole sweep and returns the largest live heap seen
// after a garbage collection at each quarter of its cells.
func sweepPeakHeap(t *testing.T, kind string, s Spec, policies []string) uint64 {
	t.Helper()
	var peak uint64
	Progress = func(done, total int) {
		if done%(total/4) != 0 || done == total {
			return
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	defer func() { Progress = nil }()
	if _, err := RunSweep(context.Background(), kind, s, policies); err != nil {
		t.Fatal(err)
	}
	return peak
}

// TestSweepHeapIndependentOfReplications bounds the live heap of a
// miss-rate sweep while it runs: each replication's trace is prepared by
// the worker that runs it and dropped after its last cell, so a
// 400-replication sweep holds about as many prepared traces as a
// 40-replication one. A sweep that prepared every replication before
// running any would hold 400 traces (~32 MB at the default horizon)
// against 40 (~3.2 MB).
func TestSweepHeapIndependentOfReplications(t *testing.T) {
	live := func(reps int) uint64 {
		s := DefaultSpec()
		s.Replications = reps
		s.Capacities = []float64{300}
		return sweepPeakHeap(t, "missrate", s, []string{"ea-dvfs"})
	}
	small, large := live(40), live(400)
	t.Logf("live heap mid-sweep: %d B at 40 replications, %d B at 400", small, large)
	if large > 2*small {
		t.Fatalf("live heap of a 400-replication sweep (%d B) exceeds twice a 40-replication one (%d B)", large, small)
	}
}

// TestRemainingSweepHeapPerReplication bounds what a remaining-energy
// sweep holds per replication while it runs. The cell that finishes a
// replication folds its block of energy series (one per capacity and
// policy, H+1 floats each) into the np curves the merge needs and drops
// the block, so the live heap grows by about np·(H+1)·8 B per finished
// replication. A sweep that kept every run's series until the end would
// grow by capacities·np·(H+1)·8 B, 7 times that at the paper's sweep.
// Two workers keep the blocks in flight, up to one replication's block
// per worker, the same at both replication counts on any host.
func TestRemainingSweepHeapPerReplication(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 2
	s := DefaultSpec()
	s.Horizon = 2000
	policies := []string{"lsa", "ea-dvfs"}
	live := func(reps int) uint64 {
		s.Replications = reps
		return sweepPeakHeap(t, "remaining", s, policies)
	}
	const small, large = 8, 32
	a, b := live(small), live(large)
	perRep := (float64(b) - float64(a)) / (large - small)
	limit := 2 * float64(len(policies)) * (s.Horizon + 1) * 8
	t.Logf("live heap mid-sweep: %d B at %d replications, %d B at %d: %.0f B per replication (limit %.0f)",
		a, small, b, large, perRep, limit)
	if perRep > limit {
		t.Fatalf("remaining sweep's live heap grows by %.0f B per replication, want at most %.0f", perRep, limit)
	}
}

// TestOracleForksRaceFree runs oracle-predictor cells concurrently on
// forks of one prepared master. The oracle is the one predictor that asks
// the source for prefix sums, so every fork extends its own prefix table
// while the others read the shared tables; under -race this pins that the
// extensions never write shared memory. Each result must equal the
// same cell run sequentially on a fresh, unprepared model.
func TestOracleForksRaceFree(t *testing.T) {
	s := DefaultSpec()
	s.Horizon = 1500
	s.Predictor = "oracle"
	factories, err := s.Policies([]string{"lsa", "ea-dvfs"})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Replicate(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	prepared := fresh
	prepared.PrepareSource(s.Horizon)
	// Two prefix queries leave the master a partial prefix table with
	// spare capacity, which every fork inherits and then extends.
	prepared.master.CumulativeEnergy(700)
	prepared.master.CumulativeEnergy(701.5)

	const workers = 8
	capOf := func(g int) float64 { return []float64{200, 500, 1000, 3000}[g/2] }
	want := make([]*sim.Result, workers)
	for g := range want {
		res, err := RunOne(context.Background(), s, fresh, capOf(g), factories[g%2], false)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = res
	}
	got := make([]*sim.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = RunOne(context.Background(), s, prepared, capOf(g), factories[g%2], false)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Fatalf("worker %d (capacity %v): result on a shared master's fork differs from a fresh model's", g, capOf(g))
		}
	}
}
