package obs

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// The float kernel of the JSONL appenders: the shortest decimal that
// rounds back to a float64, found with Giulietti's Schubfach ("The
// Schubfach way to render doubles", 2020), and written in the exact bytes
// encoding/json gives the float. Among the shortest decimals in the
// float's rounding interval it picks the one closest to the float, and on
// a tie the one with an even last digit, which is the digit string
// strconv's shortest formatting produces.

// kMin and kMax bound the decimal exponent k = ⌊log10(2^q)⌋ (or
// ⌊log10(¾·2^q)⌋) over the binary exponents q of finite float64s.
const (
	kMin = -324
	kMax = 292
)

// pow10 holds, for each k in [kMin, kMax], g = ⌊10^−k · 2^(125−r)⌋ + 1
// with r = ⌊log2(10^−k)⌋, so that 2^125 ≤ g < 2^126, as the pair
// {g >> 63, g mod 2^63}. It is computed exactly, once, on first use.
var (
	pow10     *[kMax - kMin + 1][2]uint64
	pow10Once sync.Once
)

func buildPow10() {
	var tab [kMax - kMin + 1][2]uint64
	one := big.NewInt(1)
	ten := big.NewInt(10)
	low63 := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
	var g, p, hi big.Int
	for k := kMin; k <= kMax; k++ {
		e := -k
		r := flog2pow10(e)
		if e >= 0 {
			g.Exp(ten, p.SetInt64(int64(e)), nil)
			if r <= 125 {
				g.Lsh(&g, uint(125-r))
			} else {
				g.Rsh(&g, uint(r-125))
			}
		} else {
			p.Exp(ten, p.SetInt64(int64(-e)), nil)
			g.Lsh(one, uint(125-r))
			g.Quo(&g, &p)
		}
		g.Add(&g, one)
		tab[k-kMin] = [2]uint64{hi.Rsh(&g, 63).Uint64(), g.And(&g, low63).Uint64()}
	}
	pow10 = &tab
}

// flog10pow2 is ⌊log10(2^e)⌋, flog10ThreeQuartersPow2 is ⌊log10(¾·2^e)⌋
// and flog2pow10 is ⌊log2(10^e)⌋, each exact over the range the kernel
// uses (TestFloatKernelLogs checks them).
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// roundOdd returns g·cp / 2^127 rounded to odd: the floor, with its
// lowest bit set when the dropped fraction is nonzero. g is a table pair.
func roundOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// shortest returns the decimal d·10^e the float c·2^q renders as:
// the shortest in its rounding interval, and of those the closest, ties
// to even. c is nonzero; d may end in zeros.
func shortest(q int, c uint64) (d uint64, e int) {
	pow10Once.Do(buildPow10)
	out := c & 1 // an odd c excludes the interval's ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		// Regular spacing: the interval is c·2^q ± 2^(q−1).
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// A power of two: the float below is a quarter step closer.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10[k-kMin]
	// vb, vbl and vbr are 4·10^−k times the float and the ends of its
	// interval, rounded to odd: exact against any multiple of 2.
	vb := roundOdd(g, cb<<h)
	vbl := roundOdd(g, cbl<<h)
	vbr := roundOdd(g, cbr<<h)

	// At most one multiple of 10^(k+1) lies in the interval; if one does,
	// it is the shortest.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise s·10^k or (s+1)·10^k, whichever lies in the interval, or
	// the closer of the two.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	cmp := int64(vb - (s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// appendFloat appends the finite f as encoding/json writes a float64:
// its shortest decimal, in 'e' notation (with no leading zero in a
// negative exponent) when |f| < 1e-6 or |f| ≥ 1e21 and positional
// otherwise.
func appendFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	frac := u & (1<<52 - 1)
	var c uint64
	var q int
	if exp := int(u>>52) & 0x7ff; exp != 0 {
		c, q = 1<<52|frac, exp-1075
	} else if frac != 0 {
		c, q = frac, -1074 // subnormal
	} else {
		return append(b, '0')
	}
	d, e := shortest(q, c)
	for d%100_000_000 == 0 {
		d /= 100_000_000
		e += 8
	}
	if d%10_000 == 0 {
		d /= 10_000
		e += 4
	}
	if d%100 == 0 {
		d /= 100
		e += 2
	}
	if d%10 == 0 {
		d /= 10
		e++
	}
	n := decimalLen(d)
	dp := n + e // f = 0.d × 10^dp
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		return appendExp(b, d, n, dp-1)
	}
	switch {
	case dp <= 0: // 0.000ddd
		b, w := grow(b, 2-dp+n)
		w[0], w[1] = '0', '.'
		for i := 2; i < 2-dp; i++ {
			w[i] = '0'
		}
		putDigits(w[2-dp:], d)
		return b
	case dp < n: // ddd.ddd
		b, w := grow(b, n+1)
		putDigits(w[1:], d)
		copy(w, w[1:dp+1])
		w[dp] = '.'
		return b
	default: // ddd000
		b, w := grow(b, dp)
		putDigits(w[:n], d)
		for i := n; i < dp; i++ {
			w[i] = '0'
		}
		return b
	}
}

// appendExp appends the n-digit d as d.ddde±x, x being the decimal
// exponent of its first digit.
func appendExp(b []byte, d uint64, n, x int) []byte {
	m := n
	if n > 1 {
		m++ // the point
	}
	sign := byte('+')
	if x < 0 {
		sign, x = '-', -x
	}
	xn := 1
	if x >= 100 {
		xn = 3
	} else if x >= 10 {
		xn = 2
	}
	b, w := grow(b, m+2+xn)
	putDigits(w[m-n:m], d)
	if n > 1 {
		w[0], w[1] = w[1], '.'
	}
	w[m], w[m+1] = 'e', sign
	putDigits(w[m+2:], uint64(x))
	return b
}

// grow extends b by n bytes and returns it with the new bytes.
func grow(b []byte, n int) ([]byte, []byte) {
	l := len(b)
	if cap(b)-l < n {
		b = append(b, make([]byte, n)...)
	} else {
		b = b[:l+n]
	}
	return b, b[l:]
}

// decimalLen is the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2^len⌋, one short at most
	if d >= pow10u64[n] {
		n++
	}
	return n
}

var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes the len(w) low decimal digits of d into w, two at a
// time from the right.
func putDigits(w []byte, d uint64) {
	i := len(w)
	for i >= 2 {
		r := d % 100
		d /= 100
		i -= 2
		w[i], w[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if i == 1 {
		w[0] = byte('0' + d%10)
	}
}
