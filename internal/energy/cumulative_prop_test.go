// Property tests pinning the prefix-sum energy caches to the naive
// unit-walk reference. External test package so the faulted sources from
// internal/fault (which imports energy) can be exercised too.
package energy_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/fault"
)

// opaque hides any Cumulative implementation of the wrapped source (only
// Source's method set is promoted), forcing energy.Energy down the naive
// unit-walk path. It is the reference implementation in these tests.
type opaque struct{ energy.Source }

func naive(src energy.Source, t1, t2 float64) float64 {
	return energy.Energy(opaque{src}, t1, t2)
}

// propSources returns one instance of every source shape the repo ships:
// solar (native Cumulative), constant, two-mode, trace, and a
// fault-injected dropout wrapper.
func propSources(t *testing.T) map[string]energy.Source {
	t.Helper()
	solar := energy.NewSolarModel(7)
	trace := energy.NewTrace([]float64{0, 1.5, 3, 0.25, 2, 0, 0, 4})
	set, err := fault.New(fault.Spec{Seed: 11, Intensity: 1})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]energy.Source{
		"solar":    solar,
		"constant": energy.NewConstant(2.5),
		"two-mode": energy.NewTwoMode(5, 0.5, 24, 10),
		"trace":    trace,
		"faulted":  set.WrapSource(energy.NewSolarModel(5)),
	}
}

// TestCumulativeBitEqualFromZero: for every source, the cached prefix sum
// at integer instants is bit-identical (==, no tolerance) to the naive
// left-to-right walk from 0 — the caches accumulate in exactly that order.
func TestCumulativeBitEqualFromZero(t *testing.T) {
	for name, src := range propSources(t) {
		cum := energy.AsCumulative(src)
		for k := 0; k <= 300; k++ {
			tt := float64(k)
			got := cum.CumulativeEnergy(tt)
			want := naive(src, 0, tt)
			if got != want {
				t.Fatalf("%s: CumulativeEnergy(%v) = %v, naive = %v (diff %g)",
					name, tt, got, want, got-want)
			}
		}
	}
}

// TestCumulativeIntervalProperty: arbitrary (possibly fractional)
// intervals through the Energy fast path agree with the naive walk from
// t1 within floating-point cancellation tolerance, and are never negative.
func TestCumulativeIntervalProperty(t *testing.T) {
	for name, src := range propSources(t) {
		cum := energy.AsCumulative(src)
		f := func(a, b uint16, fa, fb uint8) bool {
			t1 := float64(a%400) + float64(fa)/256
			t2 := float64(b%400) + float64(fb)/256
			if t2 < t1 {
				t1, t2 = t2, t1
			}
			got := energy.Energy(cum, t1, t2)
			want := naive(src, t1, t2)
			// Scale-aware tolerance: the prefix difference cancels two
			// sums of up to ~400 terms of O(10) magnitude.
			tol := 1e-9 * (1 + math.Abs(want) + cum.CumulativeEnergy(t2))
			return got >= 0 && math.Abs(got-want) <= tol
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCumulativeLazyExtensionBoundary queries an interval that straddles
// the cache's current high-water mark, in both fresh and pre-warmed
// orders: values must not depend on the order tables were extended in.
func TestCumulativeLazyExtensionBoundary(t *testing.T) {
	for name, src := range propSources(t) {
		// Reference: a cache warmed monotonically to 200.
		ref := energy.AsCumulative(src)
		refVal := ref.CumulativeEnergy(200)

		// Fresh cache: first query lands mid-unit just past a partial
		// warm-up, so ensure() extends across its own high-water mark.
		for _, warm := range []float64{0, 17, 99.5, 150} {
			c := energy.AsCumulative(opaque{src}) // force a fresh Cached even for solar
			if warm > 0 {
				c.PowerAt(warm)
			}
			if got := c.CumulativeEnergy(200); got != refVal {
				t.Fatalf("%s: warm-to-%v cache: CumulativeEnergy(200) = %v, want %v",
					name, warm, got, refVal)
			}
			lo, hi := warm-0.5, warm+42.25
			if lo < 0 {
				lo = 0
			}
			got := energy.Energy(c, lo, hi)
			want := naive(src, lo, hi)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: straddling interval [%v, %v] = %v, naive %v",
					name, lo, hi, got, want)
			}
		}
	}
}

// TestSolarForkBitEqual: a fork taken at any warm-up depth realizes the
// same trace, power table and prefix sums as a fresh model with the same
// seed — extension happens on the fork, never on the master.
func TestSolarForkBitEqual(t *testing.T) {
	for _, warm := range []float64{0, 1, 100, 500} {
		master := energy.NewSolarModel(42)
		if warm > 0 {
			master.PowerAt(warm)
		}
		fork := master.Fork()
		fresh := energy.NewSolarModel(42)
		for k := 0; k <= 700; k++ {
			tt := float64(k) + 0.5
			if a, b := fork.PowerAt(tt), fresh.PowerAt(tt); a != b {
				t.Fatalf("warm %v: fork power at %v = %v, fresh = %v", warm, tt, a, b)
			}
		}
		if a, b := fork.CumulativeEnergy(700), fresh.CumulativeEnergy(700); a != b {
			t.Fatalf("warm %v: fork cum(700) = %v, fresh = %v", warm, a, b)
		}
		// The fork's extension beyond the master's high-water mark must
		// not have leaked back: a second fork sees the same tail again.
		if a, b := master.Fork().CumulativeEnergy(700), fresh.CumulativeEnergy(700); a != b {
			t.Fatalf("warm %v: second fork cum(700) = %v, fresh = %v", warm, a, b)
		}
	}
}

// TestSolarLazyPrefixInterleaving drives one solar model family through a
// seeded random interleaving of PowerAt, CumulativeEnergy and Fork. Forks
// are taken both before and after the parent's first prefix query (so
// some share no prefix table and some share a partial one), and parents
// and forks alike extend past the length they share. Every power must
// equal a fresh model's, and every prefix a fresh model's and the naive
// unit walk's, bit for bit: how far a model or its parent had realized or
// summed must never show in an answer.
func TestSolarLazyPrefixInterleaving(t *testing.T) {
	const seed, maxT = 77, 900
	ref := energy.NewSolarModel(seed)

	type member struct {
		m      *energy.SolarModel
		parent *member
		reach  int  // furthest unit this member has realized or inherited
		shared int  // reach of its parent at the fork
		summed bool // it has answered a prefix query
	}
	var forkedBefore, forkedAfter, parentPast, forkPast bool
	for trial := 0; trial < 20; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial)))
		fam := []*member{{m: energy.NewSolarModel(seed), reach: -1}}
		for op := 0; op < 300; op++ {
			x := fam[rnd.Intn(len(fam))]
			// Queries creep past the member's reach more often than
			// they jump, so chains of forks overlap and diverge.
			tt := float64(rnd.Intn(maxT)) + float64(rnd.Intn(4))/4
			if rnd.Intn(2) == 0 {
				tt = math.Min(float64(max(x.reach, 0)+rnd.Intn(40))+0.5, maxT)
			}
			switch r := rnd.Intn(10); {
			case r < 2 && len(fam) < 12:
				if x.summed {
					forkedAfter = true
				} else {
					forkedBefore = true
				}
				fam = append(fam, &member{m: x.m.Fork(), parent: x, reach: x.reach, shared: x.reach, summed: x.summed})
				continue
			case r < 6:
				if got, want := x.m.PowerAt(tt), ref.PowerAt(tt); got != want {
					t.Fatalf("trial %d op %d: PowerAt(%v) = %v, fresh model = %v", trial, op, tt, got, want)
				}
			default:
				got := x.m.CumulativeEnergy(tt)
				if want := energy.NewSolarModel(seed).CumulativeEnergy(tt); got != want {
					t.Fatalf("trial %d op %d: CumulativeEnergy(%v) = %v, fresh model = %v", trial, op, tt, got, want)
				}
				if want := naive(ref, 0, tt); got != want {
					t.Fatalf("trial %d op %d: CumulativeEnergy(%v) = %v, naive walk = %v", trial, op, tt, got, want)
				}
				x.summed = true
			}
			x.reach = max(x.reach, int(tt))
			if x.parent != nil && x.reach > x.shared {
				forkPast = true
			}
			for _, c := range fam {
				if c.parent == x && x.reach > c.shared {
					parentPast = true
				}
			}
		}
	}
	if !forkedBefore || !forkedAfter || !parentPast || !forkPast {
		t.Fatalf("interleaving missed a case: fork before first prefix %v, after %v, parent past shared %v, fork past shared %v",
			forkedBefore, forkedAfter, parentPast, forkPast)
	}
}
