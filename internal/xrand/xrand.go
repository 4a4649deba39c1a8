// Package xrand provides a small, deterministic pseudo-random number
// generator used throughout the repository.
//
// Experiments in this project must be reproducible bit-for-bit across Go
// releases and platforms. The standard library's math/rand does not
// guarantee a stable stream across major versions, so we implement
// SplitMix64 (Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators", OOPSLA 2014) which is tiny, fast, and has a fully specified
// output sequence. It is emphatically not cryptographic; it seeds graph
// generators and workload shufflers only.
package xrand

// Rand is a deterministic SplitMix64 generator. The zero value is a valid
// generator seeded with 0; prefer New to make the seed explicit.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with the same
// seed produce identical streams forever.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Rejection sampling removes modulo bias, so the distribution is exactly
// uniform for every n.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	un := uint64(n)
	// Largest multiple of n that fits in a uint64.
	limit := (^uint64(0)) - (^uint64(0))%un
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// produced by a Fisher–Yates shuffle.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates, back to front).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct integers drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0. For k close to n it
// shuffles; for small k it uses a partial Fisher–Yates over a sparse map
// so the cost is O(k) regardless of n.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample called with k out of range")
	}
	// Partial Fisher–Yates with a sparse view of the identity array.
	moved := make(map[int]int, 2*k)
	get := func(i int) int {
		if v, ok := moved[i]; ok {
			return v
		}
		return i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		out[i] = get(j)
		moved[j] = get(i)
	}
	return out
}

// Split returns a new generator whose stream is statistically independent
// of r's future output. It is used to hand sub-generators to parallel
// workers deterministically.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x517cc1b727220a95)
}
