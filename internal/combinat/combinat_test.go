package combinat

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestFactorialSmall(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		if Factorial(n).Int64() != w {
			t.Fatalf("%d! = %v, want %d", n, Factorial(n), w)
		}
	}
}

// binomial returns C(n, k) exactly (0 when k < 0 or k > n): the exact
// oracle Log2Binomial, which core.LowerBound calls, is checked against.
func binomial(n, k int) *big.Int {
	if k < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

func TestBinomialPascal(t *testing.T) {
	for n := 0; n <= 20; n++ {
		for k := 0; k <= n; k++ {
			lhs := binomial(n+1, k+1)
			rhs := new(big.Int).Add(binomial(n, k), binomial(n, k+1))
			if lhs.Cmp(rhs) != 0 {
				t.Fatalf("Pascal identity fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	if binomial(5, -1).Sign() != 0 || binomial(5, 6).Sign() != 0 {
		t.Fatal("out-of-range binomial should be 0")
	}
	if binomial(0, 0).Int64() != 1 {
		t.Fatal("C(0,0) != 1")
	}
}

func TestLog2FactorialMatchesExact(t *testing.T) {
	for n := 0; n <= 300; n += 7 {
		exact := 0.0
		if n >= 2 {
			exact = Log2Big(Factorial(n))
		}
		approx := Log2Factorial(n)
		if math.Abs(exact-approx) > 1e-9*(1+exact) {
			t.Fatalf("log2 %d! : exact %v vs lgamma %v", n, exact, approx)
		}
	}
}

func TestLog2BinomialMatchesExact(t *testing.T) {
	for _, tc := range [][2]int{{10, 3}, {50, 25}, {100, 7}, {200, 199}} {
		exact := Log2Big(binomial(tc[0], tc[1]))
		approx := Log2Binomial(tc[0], tc[1])
		if math.Abs(exact-approx) > 1e-9*(1+exact) {
			t.Fatalf("log2 C(%d,%d): exact %v vs approx %v", tc[0], tc[1], exact, approx)
		}
	}
}

func TestLog2BigPowersOfTwo(t *testing.T) {
	for k := 0; k <= 200; k += 13 {
		x := new(big.Int).Lsh(big.NewInt(1), uint(k))
		if got := Log2Big(x); math.Abs(got-float64(k)) > 1e-9 {
			t.Fatalf("log2 2^%d = %v", k, got)
		}
	}
}

func TestPow(t *testing.T) {
	if Pow(3, 4).Int64() != 81 {
		t.Fatal("3^4 != 81")
	}
	if Pow(7, 0).Int64() != 1 {
		t.Fatal("7^0 != 1")
	}
}

func TestStirlingKnownValues(t *testing.T) {
	// Rows of S(n,k) from the standard table.
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 1, 1}, {3, 2, 3}, {4, 2, 7}, {5, 3, 25},
		{6, 3, 90}, {7, 4, 350}, {5, 5, 1}, {5, 0, 0}, {3, 4, 0},
	}
	for _, c := range cases {
		if got := StirlingSecond(c.n, c.k).Int64(); got != c.want {
			t.Fatalf("S(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestStirlingRowSumsAreBell(t *testing.T) {
	bell := []int64{1, 1, 2, 5, 15, 52, 203, 877, 4140}
	for n := 0; n < len(bell); n++ {
		if got := PartitionsUpTo(n, n).Int64(); n > 0 && got != bell[n] {
			t.Fatalf("Bell(%d) = %d, want %d", n, got, bell[n])
		}
	}
}

func TestPartitionsUpToTruncates(t *testing.T) {
	// Partitions of a 4-set into at most 2 blocks: S(4,1)+S(4,2) = 1+7.
	if got := PartitionsUpTo(4, 2).Int64(); got != 8 {
		t.Fatalf("PartitionsUpTo(4,2) = %d, want 8", got)
	}
}

func TestEachRGSCountMatchesDP(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for d := 1; d <= 5; d++ {
			count := 0
			EachRGS(n, d, func(r []uint8) bool { count++; return true })
			if want := CountRGS(n, d).Int64(); int64(count) != want {
				t.Fatalf("EachRGS(%d,%d) emitted %d, DP says %d", n, d, count, want)
			}
		}
	}
}

func TestCountRGSMatchesStirling(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for d := 1; d <= 8; d++ {
			if CountRGS(n, d).Cmp(PartitionsUpTo(n, d)) != 0 {
				t.Fatalf("CountRGS(%d,%d) != sum of Stirling numbers", n, d)
			}
		}
	}
}

func TestEachRGSValidity(t *testing.T) {
	EachRGS(6, 3, func(r []uint8) bool {
		maxv := -1
		for i, v := range r {
			if int(v) > maxv+1 || int(v) >= 3 {
				t.Fatalf("invalid RGS %v at position %d", r, i)
			}
			if int(v) > maxv {
				maxv = int(v)
			}
		}
		return true
	})
}

func TestEachRGSDistinct(t *testing.T) {
	seen := make(map[string]bool)
	EachRGS(5, 4, func(r []uint8) bool {
		k := string(r)
		if seen[k] {
			t.Fatalf("duplicate RGS %v", r)
		}
		seen[k] = true
		return true
	})
}

func TestEachRGSEarlyStop(t *testing.T) {
	count := 0
	EachRGS(6, 3, func(r []uint8) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop ignored: %d emissions", count)
	}
}

func TestLog2MonotoneProperty(t *testing.T) {
	check := func(a uint8) bool {
		n := int(a%100) + 2
		return Log2Factorial(n) > Log2Factorial(n-1)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
