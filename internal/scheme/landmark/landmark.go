// Package landmark implements a hierarchical landmark (pivot) routing
// scheme in the style of Peleg–Upfal [12,13] and Awerbuch et al. [1,2]
// from the paper's reference list: stretch at most 3 with o(n) routable
// state per router.
//
// This is the repository's representative of Table 1's large-stretch
// regime — the schemes showing that once s >= 3 is tolerated, the
// Θ(n log n) local lower bound of Theorem 1 (which holds for every s < 2)
// evaporates. The construction follows the classical two-level recipe:
//
//   - a landmark set L is sampled; every vertex v records its nearest
//     landmark l(v);
//   - every router stores a shortest-path port toward EVERY landmark, and
//     toward every vertex of its cluster C(x) = {v : d(x,v) < d(v, l(v))}
//     (vertices that are closer to x than to their own landmark);
//   - the address of v is (v, l(v), path(l(v) -> v)); addresses travel in
//     headers, which the paper's model leaves unbounded and free.
//
// Routing s -> t: while the current router x has t in its cluster it
// follows the stored direct port (clusters are closed under moving toward
// t, so this never gets stuck); otherwise it forwards toward l(t); once at
// l(t) the header's source-routed path finishes the job. Total length is
// at most d(s,t) + 2 d(t, l(t)) <= 3 d(s,t) whenever the direct mode does
// not apply, since then d(t, l(t)) <= d(s,t).
package landmark

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/xrand"
)

// Scheme is a landmark routing scheme instance. It never retains the
// distance table it was built from: all routing state is the o(n)
// per-router tables below, so a scheme built by NewStreamed keeps peak
// distance memory at O(|L|·n + workers·n) for its whole lifetime.
type Scheme struct {
	g         *graph.Graph
	landmarks []graph.NodeID
	lmIndex   map[graph.NodeID]int
	nearest   []graph.NodeID // nearest[v] = l(v)
	lmPort    [][]graph.Port // lmPort[x][i] = port at x toward landmarks[i]
	cluster   []map[graph.NodeID]graph.Port
	pathPorts [][]graph.Port // pathPorts[v] = ports of the path l(v) -> v
	bits      []int
}

// Options configure construction.
type Options struct {
	// NumLandmarks <= 0 selects the classical ceil(sqrt(n log2 n)).
	NumLandmarks int
	Seed         uint64
}

// newShell allocates a Scheme and samples its sorted landmark set, so
// every build with identical Options draws the identical landmark set.
// The graph is frozen to its CSR layout here: the constructor and every
// later route simulation iterate flat arcs.
func newShell(g *graph.Graph, opt Options) *Scheme {
	g.Freeze()
	n := g.Order()
	k := opt.NumLandmarks
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(n) * math.Log2(float64(n)+1))))
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	r := xrand.New(opt.Seed ^ 0xa5a5a5a5)
	s := &Scheme{
		g:         g,
		lmIndex:   make(map[graph.NodeID]int, k),
		nearest:   make([]graph.NodeID, n),
		lmPort:    make([][]graph.Port, n),
		cluster:   make([]map[graph.NodeID]graph.Port, n),
		pathPorts: make([][]graph.Port, n),
		bits:      make([]int, n),
	}
	for _, v := range r.Sample(n, k) {
		s.landmarks = append(s.landmarks, graph.NodeID(v))
	}
	sort.Slice(s.landmarks, func(i, j int) bool { return s.landmarks[i] < s.landmarks[j] })
	for i, l := range s.landmarks {
		s.lmIndex[l] = i
	}
	return s
}

// fillBits computes the local code sizes from the finished tables:
// gamma(|L|) + |L| ports (fixed width per own degree) + gamma(|C|) +
// |C| (vertex id + port) entries + own id.
func (s *Scheme) fillBits() {
	n := s.g.Order()
	wn := coding.BitsFor(uint64(n))
	for x := 0; x < n; x++ {
		wp := coding.BitsFor(uint64(s.g.Degree(graph.NodeID(x)) + 1))
		b := wn
		b += coding.GammaLen(uint64(len(s.landmarks) + 1))
		b += len(s.landmarks) * wp
		b += coding.GammaLen(uint64(len(s.cluster[x]) + 1))
		b += len(s.cluster[x]) * (wn + wp)
		s.bits[x] = b
	}
}

// firstArc returns the lowest port of u whose endpoint is one step closer
// to the root of the distance row rowV (the d(·,v) column, which equals
// v's row by symmetry) — the tie-break of shortest.ArcRows.MinPortRow.
// It is the one port rule of the build: landmark ports read a landmark
// row, cluster and address-path ports read a ball labelling. u must be
// reachable and not the root (rowV[u] > 0); otherwise it panics.
func firstArc(g *graph.Graph, rowV []int32, u graph.NodeID) graph.Port {
	du := rowV[u]
	for i, w := range g.Arcs(u) {
		if w == graph.DeadEnd {
			continue // hole left by a removed edge
		}
		if rowV[w]+1 == du {
			return graph.Port(i + 1)
		}
	}
	panic(fmt.Sprintf("landmark: no shortest first arc at %d", u))
}

// Name implements routing.Scheme.
func (s *Scheme) Name() string { return "landmark" }

// header carries the destination's full address plus the position in the
// source-routed suffix once it has been engaged (-1 before). It travels
// as *header — one allocation per route at Init, owned by that walk —
// so the per-hop Next rewrite never re-boxes the struct.
type header struct {
	dst     graph.NodeID
	lm      graph.NodeID
	pathPos int
}

// Init implements routing.Function: the source attaches t's address.
func (s *Scheme) Init(src, dst graph.NodeID) routing.Header {
	return &header{dst: dst, lm: s.nearest[dst], pathPos: -1}
}

// Port implements routing.Function.
func (s *Scheme) Port(x graph.NodeID, h routing.Header) graph.Port {
	hd := h.(*header)
	if x == hd.dst {
		return graph.NoPort
	}
	if hd.pathPos >= 0 {
		// Source-routed suffix from the landmark.
		return s.pathPorts[hd.dst][hd.pathPos]
	}
	if p, ok := s.cluster[x][hd.dst]; ok {
		return p // direct mode: t is in x's cluster
	}
	if x == hd.lm {
		// Arrived at l(t): engage the address path.
		return s.pathPorts[hd.dst][0]
	}
	return s.lmPort[x][s.lmIndex[hd.lm]]
}

// Next implements routing.Function: advance the path cursor when the
// suffix is engaged. The header is owned by the current walk, so the
// cursor advances in place.
func (s *Scheme) Next(x graph.NodeID, h routing.Header) routing.Header {
	hd := h.(*header)
	if hd.pathPos >= 0 {
		hd.pathPos++
		return hd
	}
	if _, ok := s.cluster[x][hd.dst]; ok {
		return hd // direct mode keeps plain header
	}
	if x == hd.lm {
		hd.pathPos = 1 // position consumed by Port above was 0
	}
	return hd
}

// LocalBits implements routing.LocalCoder.
func (s *Scheme) LocalBits(x graph.NodeID) int { return s.bits[x] }

// NumLandmarks returns the size of the landmark set.
func (s *Scheme) NumLandmarks() int { return len(s.landmarks) }

// MaxCluster returns the largest cluster size — the quantity that governs
// the scheme's memory and that landmark sampling keeps near n/|L|.
func (s *Scheme) MaxCluster() int {
	m := 0
	for _, c := range s.cluster {
		if len(c) > m {
			m = len(c)
		}
	}
	return m
}

var _ routing.Scheme = (*Scheme)(nil)

// HeaderBits implements routing.HeaderSizer. A landmark header is the
// destination's full address: its id, its landmark's id, and — once the
// source-routed suffix is engaged — the remaining port list. This is the
// cost the paper's model leaves uncharged by allowing unbounded headers.
func (s *Scheme) HeaderBits(h routing.Header) int {
	hd := h.(*header)
	wn := coding.BitsFor(uint64(len(s.nearest)))
	wp := coding.BitsFor(uint64(s.g.MaxDegree() + 1))
	bits := 2 * wn
	remaining := len(s.pathPorts[hd.dst])
	if hd.pathPos >= 0 {
		remaining -= hd.pathPos
		if remaining < 0 {
			remaining = 0
		}
	}
	bits += coding.GammaLen(uint64(remaining+1)) + remaining*wp
	return bits
}
