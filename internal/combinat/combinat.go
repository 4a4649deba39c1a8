// Package combinat supplies the exact and asymptotic combinatorial
// quantities used by the paper's counting arguments: factorials, Stirling
// partition numbers, base-2 logarithms of factorials and binomial
// coefficients, and enumeration of set partitions as restricted growth
// strings.
//
// Lemma 1 of the paper bounds |dMpq| >= d^(pq) / (p!·q!·(d!)^p); Theorem 1
// consumes this as log2|dMpq| >= pq·log2 d − log2 p! − log2 q! − p·log2 d!,
// and the MB term of the proof is log2 C(n, q). All of those are computed
// here, exactly (math/big) for verification at small sizes and in floating
// point for the large-n sweeps.
package combinat

import (
	"math"
	"math/big"
)

// Factorial returns n! exactly.
func Factorial(n int) *big.Int {
	if n < 0 {
		panic("combinat: negative factorial")
	}
	return new(big.Int).MulRange(1, int64(max(n, 1)))
}

// Log2Factorial returns log2(n!) as a float64, exact to double precision
// via the log-gamma function.
func Log2Factorial(n int) float64 {
	if n < 0 {
		panic("combinat: negative factorial")
	}
	if n < 2 {
		return 0
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg / math.Ln2
}

// Log2Binomial returns log2 C(n, k) (−Inf when the coefficient is 0).
func Log2Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return Log2Factorial(n) - Log2Factorial(k) - Log2Factorial(n-k)
}

// Log2Big returns log2 of a positive big integer as a float64 with
// ~53 bits of precision (bit length plus normalized mantissa).
func Log2Big(x *big.Int) float64 {
	if x.Sign() <= 0 {
		panic("combinat: Log2Big of non-positive value")
	}
	bits := x.BitLen()
	// Extract the top 53 bits as a float in [1, 2).
	shift := bits - 53
	if shift < 0 {
		shift = 0
	}
	top := new(big.Int).Rsh(x, uint(shift))
	f, _ := new(big.Float).SetInt(top).Float64()
	return math.Log2(f) + float64(shift)
}

// Pow returns base^exp exactly for exp >= 0.
func Pow(base, exp int) *big.Int {
	if exp < 0 {
		panic("combinat: negative exponent")
	}
	return new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(exp)), nil)
}

// StirlingSecond returns the Stirling number of the second kind S(n, k):
// the number of partitions of an n-set into exactly k non-empty blocks.
func StirlingSecond(n, k int) *big.Int {
	if n < 0 || k < 0 {
		panic("combinat: negative Stirling arguments")
	}
	if k > n {
		return big.NewInt(0)
	}
	if n == 0 {
		return big.NewInt(1) // S(0,0) = 1
	}
	if k == 0 {
		return big.NewInt(0)
	}
	// Row-by-row DP: S(n,k) = k*S(n-1,k) + S(n-1,k-1).
	prev := make([]*big.Int, n+1)
	cur := make([]*big.Int, n+1)
	for i := range prev {
		prev[i] = big.NewInt(0)
		cur[i] = big.NewInt(0)
	}
	prev[0].SetInt64(1)
	for row := 1; row <= n; row++ {
		cur[0].SetInt64(0)
		for j := 1; j <= row && j <= k; j++ {
			cur[j].Mul(big.NewInt(int64(j)), prev[j])
			cur[j].Add(cur[j], prev[j-1])
		}
		for j := row + 1; j <= k; j++ {
			cur[j].SetInt64(0)
		}
		prev, cur = cur, prev
	}
	return new(big.Int).Set(prev[k])
}

// PartitionsUpTo returns Σ_{k=1..d} S(n, k): the number of partitions of
// an n-set into at most d blocks — the number of distinct rows (up to
// value relabeling) of a length-n matrix row over an alphabet of size d.
func PartitionsUpTo(n, d int) *big.Int {
	total := big.NewInt(0)
	for k := 1; k <= d && k <= n; k++ {
		total.Add(total, StirlingSecond(n, k))
	}
	if n == 0 {
		total.SetInt64(1)
	}
	return total
}

// EachRGS enumerates the restricted growth strings of length n with at
// most d distinct values: sequences r with r[0] = 0 and
// r[i] <= max(r[0..i-1]) + 1, values < d. Each RGS encodes one set
// partition of {0..n-1} into at most d blocks, with blocks numbered in
// first-occurrence order — exactly the canonical form of a matrix row
// under the paper's per-row entry permutation. fn receives a reused
// buffer; it must copy if it retains. Enumeration stops early if fn
// returns false.
func EachRGS(n, d int, fn func(rgs []uint8) bool) {
	if n == 0 || d <= 0 {
		return
	}
	if d > 255 {
		panic("combinat: RGS alphabet too large")
	}
	rgs := make([]uint8, n)
	maxes := make([]uint8, n) // maxes[i] = max(rgs[0..i])
	// Iterative odometer over valid strings.
	pos := n - 1
	for {
		// Emit current string.
		if !fn(rgs) {
			return
		}
		// Increment from the last position.
		pos = n - 1
		for pos > 0 {
			limit := maxes[pos-1] + 1 // may go one above the running max
			if int(limit) > d-1 {
				limit = uint8(d - 1)
			}
			if rgs[pos] < limit {
				rgs[pos]++
				break
			}
			rgs[pos] = 0
			pos--
		}
		if pos == 0 {
			return // rgs[0] must stay 0; overflow ends enumeration
		}
		// Recompute running maxima from pos onward (suffix was reset).
		for i := pos; i < n; i++ {
			m := maxes[i-1]
			if rgs[i] > m {
				m = rgs[i]
			}
			maxes[i] = m
		}
	}
}

// CountRGS returns the number of strings EachRGS(n, d) emits, i.e.
// PartitionsUpTo(n, d), but by direct DP on (position, current max); used
// to cross-check the enumerator in tests.
func CountRGS(n, d int) *big.Int {
	if n == 0 || d <= 0 {
		return big.NewInt(0)
	}
	// state: number of strings with running max = m after i symbols.
	counts := make([]*big.Int, d)
	for i := range counts {
		counts[i] = big.NewInt(0)
	}
	counts[0].SetInt64(1)
	for i := 1; i < n; i++ {
		next := make([]*big.Int, d)
		for m := range next {
			next[m] = big.NewInt(0)
		}
		for m := 0; m < d; m++ {
			if counts[m].Sign() == 0 {
				continue
			}
			// Reuse one of the m+1 existing values.
			tmp := new(big.Int).Mul(counts[m], big.NewInt(int64(m+1)))
			next[m].Add(next[m], tmp)
			// Introduce value m+1.
			if m+1 < d {
				next[m+1].Add(next[m+1], counts[m])
			}
		}
		counts = next
	}
	total := big.NewInt(0)
	for _, c := range counts {
		total.Add(total, c)
	}
	return total
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
