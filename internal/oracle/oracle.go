// Package oracle implements a Thorup–Zwick-style approximate distance
// oracle: the space/stretch tradeoff mechanism behind the hierarchical
// routing schemes of the paper's Table 1 (Peleg–Upfal [13], Awerbuch–
// Peleg [2] trade a factor-s stretch for n^(1+O(1/s)) space; Thorup &
// Zwick later crystallized the construction this package follows).
//
// With k levels the oracle stores O(k·n^(1+1/k)) words in total —
// distributed as per-vertex "bunches" of expected size O(k·n^(1/k)) —
// and answers distance queries within a multiplicative stretch of 2k-1.
// The k = 2 instance is exactly the ball/landmark structure of
// internal/scheme/landmark; larger k continues the Table 1 curve: more
// stretch, less memory per vertex.
package oracle

import (
	"fmt"
	"math"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// Oracle is a k-level approximate distance oracle over one graph.
type Oracle struct {
	k int
	n int
	// pivot[i][v] = p_i(v): the vertex of level-i set A_i nearest to v
	// (level 0 is V, so pivot[0][v] = v). pivotDist carries d(v, p_i(v)).
	pivot     [][]graph.NodeID
	pivotDist [][]int32
	// bunch[v] maps w -> d(v, w) for every w in v's bunch.
	bunch []map[graph.NodeID]int32
}

// Options configure construction.
type Options struct {
	// K >= 2 is the number of levels; stretch is at most 2K-1.
	K    int
	Seed uint64
}

// New builds the oracle. The construction uses exact BFS distances
// (unweighted graphs), so expected preprocessing is O(k·n·m / n^(1/k))
// in the worst case and the oracle sizes concentrate as in the analysis.
func New(g *graph.Graph, apsp *shortest.APSP, opt Options) (*Oracle, error) {
	if opt.K < 2 {
		return nil, fmt.Errorf("oracle: K must be >= 2, got %d", opt.K)
	}
	if apsp == nil {
		apsp = shortest.NewAPSPParallel(g, 0)
	}
	if !apsp.Connected() {
		return nil, graph.ErrNotConnected
	}
	n := g.Order()
	k := opt.K
	o := &Oracle{k: k, n: n}
	r := xrand.New(opt.Seed ^ 0x7a5c3)

	// Sample the level hierarchy A_0 = V ⊇ A_1 ⊇ ... ⊇ A_{k-1} ≠ ∅,
	// A_k = ∅, each level keeping a vertex with probability n^(-1/k).
	levels := make([][]bool, k)
	levels[0] = make([]bool, n)
	for v := range levels[0] {
		levels[0][v] = true
	}
	prob := math.Pow(float64(n), -1.0/float64(k))
	for i := 1; i < k; i++ {
		levels[i] = make([]bool, n)
		nonEmpty := false
		for v := 0; v < n; v++ {
			if levels[i-1][v] && r.Float64() < prob {
				levels[i][v] = true
				nonEmpty = true
			}
		}
		if !nonEmpty {
			// Resample failure: promote one random member of the previous
			// level so the hierarchy never collapses (standard fix).
			var cand []int
			for v := 0; v < n; v++ {
				if levels[i-1][v] {
					cand = append(cand, v)
				}
			}
			levels[i][cand[r.Intn(len(cand))]] = true
		}
	}

	// Pivots: nearest level-i vertex (ties to smallest id via scan order).
	o.pivot = make([][]graph.NodeID, k)
	o.pivotDist = make([][]int32, k)
	for i := 0; i < k; i++ {
		o.pivot[i] = make([]graph.NodeID, n)
		o.pivotDist[i] = make([]int32, n)
		for v := 0; v < n; v++ {
			rowV := apsp.Row(graph.NodeID(v))
			best, bd := graph.NodeID(-1), shortest.Unreachable
			for w := 0; w < n; w++ {
				if levels[i][w] {
					if d := rowV[w]; d < bd {
						best, bd = graph.NodeID(w), d
					}
				}
			}
			o.pivot[i][v] = best
			o.pivotDist[i][v] = bd
		}
	}

	// Bunches: w ∈ A_i \ A_{i+1} joins B(v) iff d(v,w) < d(v, A_{i+1});
	// the top level joins unconditionally.
	o.bunch = make([]map[graph.NodeID]int32, n)
	for v := 0; v < n; v++ {
		rowV := apsp.Row(graph.NodeID(v))
		b := make(map[graph.NodeID]int32)
		for w := 0; w < n; w++ {
			lvl := 0
			for i := k - 1; i >= 0; i-- {
				if levels[i][w] {
					lvl = i
					break
				}
			}
			d := rowV[w]
			if lvl == k-1 || d < o.pivotDist[lvl+1][v] {
				b[graph.NodeID(w)] = d
			}
		}
		o.bunch[v] = b
	}
	return o, nil
}

// Query returns an estimate of d(u, v) within stretch 2K-1, by the
// classical pivot-swapping walk: raise the level until the current pivot
// lands in the other endpoint's bunch.
func (o *Oracle) Query(u, v graph.NodeID) int32 {
	w := u
	i := 0
	for {
		if d, ok := o.bunch[v][w]; ok {
			return o.dist(u, w, i) + d
		}
		i++
		u, v = v, u
		w = o.pivot[i][u]
	}
}

// dist returns d(u, w) where w = p_i(u) (stored with the pivot tables).
func (o *Oracle) dist(u, w graph.NodeID, i int) int32 {
	if o.pivot[i][u] != w {
		// w must be p_i(u) by construction of the query walk.
		panic("oracle: query invariant violated")
	}
	return o.pivotDist[i][u]
}

// BunchSize returns |B(v)| — the per-vertex space driver.
func (o *Oracle) BunchSize(v graph.NodeID) int { return len(o.bunch[v]) }

// MaxBunch returns the largest bunch.
func (o *Oracle) MaxBunch() int {
	m := 0
	for _, b := range o.bunch {
		if len(b) > m {
			m = len(b)
		}
	}
	return m
}

// TotalEntries returns Σ_v |B(v)|: total oracle size in entries.
func (o *Oracle) TotalEntries() int {
	t := 0
	for _, b := range o.bunch {
		t += len(b)
	}
	return t
}

// LocalBits returns the encoded size of v's share of the oracle under
// the fixed coding strategy: pivots (k entries of id+distance) plus the
// bunch (id+distance per member).
func (o *Oracle) LocalBits(v graph.NodeID) int {
	wn := coding.BitsFor(uint64(o.n))
	wd := coding.BitsFor(uint64(o.n)) // distances < n in connected graphs
	bits := o.k * (wn + wd)
	bits += coding.GammaLen(uint64(len(o.bunch[v]) + 1))
	bits += len(o.bunch[v]) * (wn + wd)
	return bits
}
