package experiment

import (
	"testing"

	"github.com/eadvfs/eadvfs/internal/energy"
)

// TestWarmBisectionMatchesCold pins the MinCapacitySearcher contract: over
// the Table 1 utilization grid, the warm-start search (shared runner, probe
// memo, first-miss early exit) returns exactly the capacities and ok flags
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

// TestSweepRealizesSolarOncePerReplication guards the AdoptSource fix: a
// task-count sweep must realize each replication's solar trace roughly once
// (master preparation plus short beyond-horizon tails from predictor
// lookahead), not once per (point, policy) cell. Before the fix the
// re-derived replications carried no master and every cell regenerated the
// full trace, making the realization count scale with the cell count.
func TestSweepRealizesSolarOncePerReplication(t *testing.T) {
	s := DefaultSpec()
	s.Horizon = 800
	s.Replications = 2
	s.Capacities = []float64{300}
	points := []float64{2, 4, 6}
	policies := []string{"lsa", "ea-dvfs"}

	before := energy.SolarRealizations()
	if _, err := TaskCountSweep(s, points, policies); err != nil {
		t.Fatal(err)
	}
	delta := energy.SolarRealizations() - before

	cells := uint64(len(points) * len(policies) * s.Replications)
	perRep := uint64(s.Horizon) + 10
	// Per-replication realization plus a one-cell allowance for lookahead
	// tails; the pre-fix behaviour realizes ~cells*perRep units and lands
	// far above this.
	limit := uint64(s.Replications)*perRep + cells*64
	t.Logf("realized %d units over %d cells (limit %d, regression ~%d)",
		delta, cells, limit, cells*perRep)
	if delta > limit {
		t.Fatalf("sweep realized %d solar units over %d cells — per-cell re-realization regressed (limit %d)",
			delta, cells, limit)
	}
}
