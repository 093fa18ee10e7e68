package energy

import (
	"fmt"
	"math"
)

// Cumulative is a Source that can report its energy integral from time 0
// in O(1). Energy() uses it to answer interval queries as a prefix-sum
// difference C(t2) − C(t1) instead of walking unit intervals — the
// difference between O(1) and O(deadline) per scheduling decision.
//
// Contract: CumulativeEnergy(t) = ∫₀ᵗ PowerAt, it is non-decreasing in t
// (guaranteed when PowerAt is non-negative, because the prefix table only
// ever adds non-negative terms to a running float sum), and for integer t
// it is bit-identical to the naive left-to-right unit walk from 0
// (naiveEnergy(src, 0, t)) — the caches accumulate in exactly that order.
type Cumulative interface {
	Source
	// CumulativeEnergy returns the energy harvested over [0, t], t >= 0.
	CumulativeEnergy(t float64) float64
}

// AsCumulative returns src itself when it already answers prefix queries,
// and otherwise wraps it in a lazily filled Cached table. Use it wherever
// a source will receive many Energy/PredictEnergy interval queries.
func AsCumulative(src Source) Cumulative {
	if c, ok := src.(Cumulative); ok {
		return c
	}
	return NewCached(src)
}

// Cached memoizes an arbitrary source into per-unit power and energy
// prefix-sum tables, turning interval integration O(1) amortized. The
// wrapped source must honor the package contract — piecewise-constant on
// unit intervals and pure (PowerAt(t) depends only on ⌊t⌋ for a fixed
// source state), which every source in this repository satisfies,
// including the fault-injection wrappers (internal/fault derives each
// unit's perturbation from seeds, not from call order).
//
// The tables extend lazily to the furthest queried instant and are never
// evicted, capped at maxSolarSamples units like SolarModel's. Unlike
// SolarModel, which builds its prefix sums only on the first prefix query,
// Cached fills both tables together (16 bytes per simulated unit): a
// source is wrapped only to answer prefix queries.
type Cached struct {
	Src   Source
	power []float64 // power[k] = Src.PowerAt(k)
	cum   []float64 // cum[k] = ∫₀ᵏ P; len(cum) == len(power)+1
}

// NewCached wraps src in a fresh prefix-sum cache. Prefer AsCumulative,
// which avoids double-wrapping sources that already implement Cumulative.
func NewCached(src Source) *Cached {
	if src == nil {
		panic("energy: caching nil source")
	}
	return &Cached{Src: src, cum: []float64{0}}
}

func (c *Cached) ensure(k int) {
	if k < len(c.power) {
		return
	}
	if k >= maxSolarSamples {
		panic(fmt.Sprintf("energy: cached trace would exceed %d units at t=%d — runaway horizon?", maxSolarSamples, k))
	}
	need := k + 1 - len(c.power)
	c.power = grow(c.power, need)
	c.cum = grow(c.cum, need)
	if len(c.cum) == 0 {
		c.cum = append(c.cum, 0)
	}
	for len(c.power) <= k {
		i := len(c.power)
		// Sample at the unit's left edge — the same argument the naive
		// walk from 0 passes, so the table is bit-identical to it.
		p := c.Src.PowerAt(float64(i))
		if p < 0 || math.IsNaN(p) {
			panic(fmt.Sprintf("energy: source %T returned invalid power %v at t=%d", c.Src, p, i))
		}
		c.power = append(c.power, p)
		c.cum = append(c.cum, c.cum[i]+p)
	}
}

// PowerAt implements Source from the memoized table.
func (c *Cached) PowerAt(t float64) float64 {
	if t < 0 {
		panic("energy: PowerAt before t=0")
	}
	k := int(math.Floor(t))
	c.ensure(k)
	return c.power[k]
}

// CumulativeEnergy implements Cumulative.
func (c *Cached) CumulativeEnergy(t float64) float64 {
	if t < 0 {
		panic("energy: CumulativeEnergy before t=0")
	}
	k := int(math.Floor(t))
	c.ensure(k)
	e := c.cum[k]
	if frac := t - float64(k); frac > 0 {
		e += float64(c.power[k] * frac)
	}
	return e
}

// MeanPower implements Source by delegation.
func (c *Cached) MeanPower() float64 { return c.Src.MeanPower() }
