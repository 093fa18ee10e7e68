package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded generator produced repeats within 100 draws: %d unique", len(seen))
	}
}

func TestChildIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Child(1)
	c2 := parent.Child(2)
	c1again := parent.Child(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Child(1) is not deterministic")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("Child(1) and Child(2) look identical")
	}
	// Deriving children must not advance the parent.
	p1 := New(7)
	_ = p1.Child(9)
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Child advanced the parent stream")
	}
}

// Seed and ChildInto reset a generator to exactly the streams New and
// Child return, whatever it drew before (a cached Normal spare included),
// without allocating.
func TestInPlaceSeeding(t *testing.T) {
	parent := New(7)
	r := New(8)
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r.Normal() // leave a spare deviate cached
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 8; i++ {
			if got, w := r.Normal(), want.Normal(); got != w {
				t.Fatalf("Seed(%d): draw %d is %v, New gives %v", seed, i, got, w)
			}
		}
		parent.ChildInto(r, seed)
		want = parent.Child(seed)
		for i := 0; i < 8; i++ {
			if got, w := r.Normal(), want.Normal(); got != w {
				t.Fatalf("ChildInto(%d): draw %d is %v, Child gives %v", seed, i, got, w)
			}
		}
	}
	self := New(9)
	want := self.Child(3)
	self.ChildInto(self, 3)
	if self.Uint64() != want.Uint64() {
		t.Fatal("ChildInto with dst == r differs from Child")
	}
	if n := testing.AllocsPerRun(100, func() { parent.ChildInto(r, 5) }); n != 0 {
		t.Fatalf("ChildInto allocates %v times", n)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestUniformBounds(t *testing.T) {
	r := New(5)
	f := func(lo, hi float64) bool {
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		// Keep hi-lo representable; astronomically wide ranges overflow
		// to +Inf and are not meaningful inputs for the simulator.
		lo = math.Mod(lo, 1e12)
		hi = math.Mod(hi, 1e12)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := r.Uniform(lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(1, 0) did not panic")
		}
	}()
	New(1).Uniform(1, 0)
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := New(9)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		v := r.Intn(buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("Intn(%d) = %d out of range", buckets, v)
		}
		counts[v]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 500000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestHalfNormalMoments(t *testing.T) {
	r := New(17)
	const n = 500000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.HalfNormal()
		if v < 0 {
			t.Fatalf("HalfNormal() = %v < 0", v)
		}
		sum += v
	}
	mean := sum / n
	want := math.Sqrt(2 / math.Pi)
	if math.Abs(mean-want) > 0.01 {
		t.Fatalf("half-normal mean = %v, want ~%v", mean, want)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(19)
	const n = 300000
	const rate = 2.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(rate)
		if v < 0 {
			t.Fatalf("Exponential() = %v < 0", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exponential mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestChoice(t *testing.T) {
	r := New(23)
	vals := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	counts := map[int]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[Choice(r, vals)]++
	}
	if len(counts) != len(vals) {
		t.Fatalf("Choice never returned %d of the values", len(vals)-len(counts))
	}
	want := float64(n) / float64(len(vals))
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("value %d chosen %d times, want ~%v", v, c, want)
		}
	}
}

func TestChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice(empty) did not panic")
		}
	}()
	Choice[int](New(1), nil)
}

func TestMul64MatchesBigArithmetic(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {math.MaxUint64, math.MaxUint64},
		{1 << 32, 1 << 32}, {0xdeadbeefcafebabe, 0x123456789abcdef0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		// Verify via decomposition: (aHi*2^32 + aLo)*(bHi*2^32 + bLo).
		wantLo := c.a * c.b
		if lo != wantLo {
			t.Fatalf("mul64(%x,%x) lo = %x, want %x", c.a, c.b, lo, wantLo)
		}
		// hi cross-check with float approximation for large values.
		approx := float64(c.a) * float64(c.b) / math.Pow(2, 64)
		if math.Abs(float64(hi)-approx) > approx*1e-9+2 {
			t.Fatalf("mul64(%x,%x) hi = %x, approx %v", c.a, c.b, hi, approx)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal()
	}
}
