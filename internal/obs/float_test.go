package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// floatSeeds are the edges of the float kernel: signed zeros, the
// subnormal and normal ends, the integral fast path's limit 2^53, the
// 'f'/'e' switches at 1e-6 and 1e21 with their one-ulp neighbours, and
// every power of two and of ten a float64 reaches.
func floatSeeds() []float64 {
	next := func(x float64) []float64 {
		return []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))}
	}
	seeds := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), // subnormal ends
		math.Float64frombits(1 << 52), // smallest normal
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, x := range []float64{1 << 52, 1 << 53, 1e-6, 1e21} {
		seeds = append(seeds, next(x)...)
		seeds = append(seeds, next(-x)...)
	}
	for e := -1074; e <= 1023; e++ {
		seeds = append(seeds, math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, x, -x)
	}
	return seeds
}

// wireFloat is the float field as the JSONL appenders write it, after a
// prefix that a failing value must leave alone.
func wireFloat(f float64) ([]byte, error) {
	e := wireAppender{b: []byte(`{"t":`)}
	e.float(f)
	return e.done(len(`{"t":`))
}

// checkFloat compares wireFloat with json.Marshal on the float whose bits
// are u: the same bytes, or for NaN and ±Inf the same error and nothing
// written.
func checkFloat(u uint64) string {
	f := math.Float64frombits(u)
	want, wantErr := json.Marshal(f)
	got, err := wireFloat(f)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || string(got) != `{"t":` {
			return "bits " + strconv.FormatUint(u, 16) + ": got " + strconv.Quote(string(got)) +
				" and error " + errString(err) + ", want nothing written and error " + wantErr.Error()
		}
	case err != nil || !bytes.Equal(got[len(`{"t":`):], want):
		return "bits " + strconv.FormatUint(u, 16) + ": got " + strconv.Quote(string(got)) +
			" and error " + errString(err) + ", want " + strconv.Quote(string(want))
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// FuzzJSONLFloat checks the float kernel against encoding/json on
// arbitrary bit patterns.
func FuzzJSONLFloat(f *testing.F) {
	for _, x := range floatSeeds() {
		f.Add(math.Float64bits(x))
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		if msg := checkFloat(u); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestFloatKernelSweep compares the kernel with encoding/json on every
// seed and on 160·2^16 (over 10^7) seeded doubles: each binary exponent,
// subnormals included, gets the same share, half with random significands
// and half the doubles nearest short decimals, where the
// shorter-candidate branch decides. json.Marshal takes the doubles a
// slice at a time; a slice that differs is searched for its first
// differing value.
func TestFloatKernelSweep(t *testing.T) {
	for _, x := range floatSeeds() {
		if msg := checkFloat(math.Float64bits(x)); msg != "" {
			t.Fatal(msg)
		}
	}
	const chunks, perChunk, batch = 160, 1 << 16, 1 << 12
	var next atomic.Int64
	msgs := make([]string, chunks)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs := make([]float64, batch)
			for c := next.Add(1) - 1; c < chunks; c = next.Add(1) - 1 {
				rng := rand.New(rand.NewPCG(24, uint64(c)))
				for i := 0; i < perChunk; i += batch {
					for j := range xs {
						xs[j] = sweepFloat(rng, uint64((i+j)%2047), j&1 == 1)
					}
					if msgs[c] = checkFloats(xs); msgs[c] != "" {
						next.Store(chunks)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, msg := range msgs {
		if msg != "" {
			t.Fatal(msg)
		}
	}
}

// sweepFloat draws a finite double of biased exponent exp (0 is the
// subnormals) with a random sign: random significand bits, or with near
// set the double nearest a random decimal of 1 to 17 digits whose leading
// digit sits in that binade.
func sweepFloat(rng *rand.Rand, exp uint64, near bool) float64 {
	u := rng.Uint64()&(1<<63|1<<52-1) | exp<<52
	if near {
		e := int(exp) - 1023
		if exp == 0 {
			e -= rng.IntN(52)
		}
		lead := int(math.Floor(math.Log10(math.Ldexp(1+rng.Float64(), e))))
		n := 1 + rng.IntN(17)
		m := pow10u64[n-1] + rng.Uint64N(9*pow10u64[n-1])
		x, err := strconv.ParseFloat(strconv.FormatUint(m, 10)+"e"+strconv.Itoa(lead-n+1), 64)
		if err == nil {
			u = math.Float64bits(x) | u&(1<<63)
		}
	}
	return math.Float64frombits(u)
}

// checkFloats compares the kernel's "[x,y,…]" with json.Marshal of the
// finite xs and names the first value that differs.
func checkFloats(xs []float64) string {
	want, err := json.Marshal(xs)
	if err != nil {
		return err.Error()
	}
	e := wireAppender{b: []byte{'['}}
	for i, x := range xs {
		if i > 0 {
			e.raw(",")
		}
		e.float(x)
	}
	e.raw("]")
	if bytes.Equal(e.b, want) && e.err == nil {
		return ""
	}
	for _, x := range xs {
		if msg := checkFloat(math.Float64bits(x)); msg != "" {
			return msg
		}
	}
	return "a slice differs from json.Marshal, though each value matches"
}

// TestFloatKernelLogs checks the kernel's integer logarithms exactly over
// the binary exponents of float64 (and the decimal exponents they give),
// and that every table entry lies in [2^125, 2^126).
func TestFloatKernelLogs(t *testing.T) {
	pow := func(b, e int64) *big.Rat { // b^e as an exact rational
		n := new(big.Int).Exp(big.NewInt(b), big.NewInt(abs64(e)), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), n)
		}
		return new(big.Rat).SetInt(n)
	}
	// floorLog reports whether k = ⌊log_base(x)⌋: base^k ≤ x < base^(k+1).
	floorLog := func(base int64, x *big.Rat, k int) bool {
		return pow(base, int64(k)).Cmp(x) <= 0 && x.Cmp(pow(base, int64(k+1))) < 0
	}
	for q := -1074; q <= 971; q++ {
		x := pow(2, int64(q))
		if k := flog10pow2(q); !floorLog(10, x, k) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		x.Mul(x, big.NewRat(3, 4))
		if k := flog10ThreeQuartersPow2(q); !floorLog(10, x, k) {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := -kMax; e <= -kMin; e++ {
		if r := flog2pow10(e); !floorLog(2, pow(10, int64(e)), r) {
			t.Fatalf("flog2pow10(%d) = %d", e, r)
		}
	}
	pow10Once.Do(buildPow10)
	for i, g := range pow10 {
		if g[0] < 1<<62 || g[0] >= 1<<63 || g[1] >= 1<<63 {
			t.Fatalf("table entry k=%d = %#x, %#x: outside [2^125, 2^126)", i+kMin, g[0], g[1])
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

var sinkBytes []byte

// BenchmarkJSONLFloat formats non-integral floats of the magnitudes a
// decision stream carries, with the kernel and with strconv.
func BenchmarkJSONLFloat(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64() * math.Pow10(rng.IntN(8)-2)
	}
	buf := make([]byte, 0, 64)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFloat(buf[:0], xs[i&1023])
		}
		sinkBytes = buf
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], xs[i&1023], 'f', -1, 64)
		}
		sinkBytes = buf
	})
}
