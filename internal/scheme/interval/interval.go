// Package interval implements the (k-)interval routing scheme (Santoro &
// Khatib, van Leeuwen & Tan — references [14,15] of the paper): every
// router groups the destination labels assigned to each outgoing arc into
// cyclic intervals and stores only the interval endpoints.
//
// The shortest-path interval routing scheme is the paper's running
// example of a UNIVERSAL scheme: for every network some assignment of
// destinations to shortest-path arcs exists (so the scheme applies to all
// graphs), but the number of intervals per arc — and hence the memory —
// degrades on adversarial topologies, which is exactly the regime
// Theorem 1 formalizes. On trees, outerplanar and unit circular-arc
// graphs one interval per arc suffices, giving the O(d log n) rows of
// Table 1.
package interval

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/shortest"
)

// Policy selects how destinations are assigned to shortest-path arcs.
type Policy int

const (
	// MinPort assigns each destination the lowest shortest-path port.
	MinPort Policy = iota
	// RunGreedy walks destinations in cyclic label order and keeps the
	// previous port when it is still a shortest-path arc, merging runs and
	// hence reducing interval counts. This is the package's default and
	// the subject of an ablation benchmark.
	RunGreedy
)

// Scheme is an interval routing scheme instance.
type Scheme struct {
	g      *graph.Graph
	label  []int32 // label[v] = external label of vertex v
	invlab []graph.NodeID
	assign [][]graph.Port // assign[x][label] = port at x for that destination label
	ivals  [][]int        // ivals[x][k] = number of cyclic intervals of port k+1
	bits   []int
	hdr    []header // hdr[lab] = header(lab); Init hands out pointers, so no per-route boxing
}

// Options configure construction.
type Options struct {
	// Labels maps vertex id -> label; nil means identity. A good labeling
	// (DFS order on trees, outer-cycle order on outerplanar graphs) is
	// what turns many intervals into one.
	Labels []int32
	Policy Policy
}

// New builds a shortest-path interval routing scheme on g. apsp may be
// nil.
func New(g *graph.Graph, apsp *shortest.APSP, opt Options) (*Scheme, error) {
	if apsp == nil {
		apsp = shortest.NewAPSPParallel(g, 0)
	}
	if !apsp.Connected() {
		return nil, graph.ErrNotConnected
	}
	g.Freeze()
	n := g.Order()
	s := &Scheme{
		g:      g,
		label:  make([]int32, n),
		invlab: make([]graph.NodeID, n),
		assign: make([][]graph.Port, n),
		ivals:  make([][]int, n),
		bits:   make([]int, n),
		hdr:    make([]header, n),
	}
	for lab := range s.hdr {
		s.hdr[lab] = header(lab)
	}
	if opt.Labels != nil {
		if len(opt.Labels) != n {
			return nil, fmt.Errorf("interval: label vector has length %d, want %d", len(opt.Labels), n)
		}
		seen := make([]bool, n)
		for v, lab := range opt.Labels {
			if lab < 0 || int(lab) >= n || seen[lab] {
				return nil, fmt.Errorf("interval: labels are not a permutation (vertex %d)", v)
			}
			seen[lab] = true
			s.label[v] = lab
			s.invlab[lab] = graph.NodeID(v)
		}
	} else {
		for v := 0; v < n; v++ {
			s.label[v] = int32(v)
			s.invlab[v] = graph.NodeID(v)
		}
	}
	// Routers are independent, so they are built on a par.For pool in
	// claims of buildClaim; a claim stops at its first failing router,
	// so the error reported is the lowest failing router's whatever the
	// worker count.
	newScratch := func() *rowScratch { return &rowScratch{byVertex: make([]graph.Port, n)} }
	err := par.For(0, (n+buildClaim-1)/buildClaim, newScratch, func(sc *rowScratch, c int) error {
		for x := c * buildClaim; x < min((c+1)*buildClaim, n); x++ {
			if err := s.buildRow(apsp, graph.NodeID(x), opt.Policy, sc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildClaim is the number of consecutive routers a New worker claims
// at a time, the granularity of table.New's build.
const buildClaim = 64

// rowScratch is one New worker's scratch: the first-arc view and the
// MinPort row of the router in hand, indexed by vertex.
type rowScratch struct {
	av       shortest.ArcRows
	byVertex []graph.Port
}

// buildRow derives router x's row, interval counts and bits. The MinPort
// row comes from the shared first-arc kernel, by vertex; one pass in
// cyclic label order, starting just after x's own label so RunGreedy
// merges across the natural wrap point, then applies the
// keep-previous-port rule and fills the row by label.
func (s *Scheme) buildRow(apsp *shortest.APSP, x graph.NodeID, pol Policy, sc *rowScratch) error {
	n := len(s.label)
	arcs := s.g.Arcs(x)
	sc.av.Load(apsp, arcs, x, nil)
	clear(sc.byVertex)
	sc.av.MinPortRow(sc.byVertex)
	row := make([]graph.Port, n) // indexed by label
	prev := graph.NoPort
	start := int(s.label[x]) + 1
	for t := 0; t < n; t++ {
		lab := start + t
		if lab >= n {
			lab -= n
		}
		v := s.invlab[lab]
		if v == x {
			continue
		}
		p := sc.byVertex[v]
		if p == graph.NoPort {
			return fmt.Errorf("interval: no shortest first arc %d->%d", x, v)
		}
		if pol == RunGreedy && prev != graph.NoPort && p != prev && sc.av.Keeps(prev, int(v)) {
			p = prev
		}
		row[lab] = p
		prev = p
	}
	s.assign[x] = row
	s.ivals[x] = countIntervals(row, s.label[x], len(arcs))
	s.bits[x] = s.localBits(int(x))
	return nil
}

// localBits computes the metered local code size of router x from its
// interval counts: own label + per arc a gamma interval count (making
// the code self-delimiting) + two label endpoints per interval. One
// formula shared by New and the wire decoder, so the meter and a
// decoded scheme can never drift apart.
func (s *Scheme) localBits(x int) int {
	wn := coding.BitsFor(uint64(len(s.label)))
	b := wn
	for _, c := range s.ivals[x] {
		b += coding.GammaLen(uint64(c + 1))
		b += c * 2 * wn
	}
	return b
}

// countIntervals returns, per port (index k = port-1), the number of
// maximal cyclic runs of labels assigned to that port. The router's own
// label own acts as a wildcard joining its two neighbors' runs, since a
// message for the router itself is delivered before any table lookup.
// One pass in label order counts the linear runs, a run of p starting
// wherever p follows another entry; a run that wraps from the last
// labels into the first is then counted once, not twice.
func countIntervals(row []graph.Port, own int32, deg int) []int {
	counts := make([]int, deg)
	first, prev := -1, graph.NoPort
	for lab, p := range row {
		if int32(lab) == own {
			continue // wildcard: does not break a run
		}
		if first < 0 {
			first = lab
		}
		if p != prev && p != graph.NoPort {
			counts[p-1]++
		}
		prev = p
	}
	if first >= 0 {
		if p := row[first]; p != graph.NoPort && p == prev && counts[p-1] > 1 {
			counts[p-1]--
		}
	}
	return counts
}

// Name implements routing.Scheme.
func (s *Scheme) Name() string { return "interval" }

type header int32 // destination label; carried as *header to avoid boxing

// Init implements routing.Function.
func (s *Scheme) Init(src, dst graph.NodeID) routing.Header { return &s.hdr[s.label[dst]] }

// Port implements routing.Function.
func (s *Scheme) Port(x graph.NodeID, h routing.Header) graph.Port {
	lab := int32(*h.(*header))
	if lab == s.label[x] {
		return graph.NoPort
	}
	return s.assign[x][lab]
}

// Next implements routing.Function.
func (s *Scheme) Next(x graph.NodeID, h routing.Header) routing.Header { return h }

// LocalBits implements routing.LocalCoder.
func (s *Scheme) LocalBits(x graph.NodeID) int { return s.bits[x] }

// MaxIntervalsPerArc returns the k of this k-IRS instance: the largest
// number of cyclic intervals any single arc needs.
func (s *Scheme) MaxIntervalsPerArc() int {
	m := 0
	for _, per := range s.ivals {
		for _, c := range per {
			if c > m {
				m = c
			}
		}
	}
	return m
}

// TotalIntervals returns the total interval count over all arcs — the
// global compactness measure of references [5,8] of the paper.
func (s *Scheme) TotalIntervals() int {
	t := 0
	for _, per := range s.ivals {
		for _, c := range per {
			t += c
		}
	}
	return t
}

// IntervalsAt returns the per-port interval counts of router x.
func (s *Scheme) IntervalsAt(x graph.NodeID) []int { return s.ivals[x] }

var _ routing.Scheme = (*Scheme)(nil)

// DFSLabels returns a DFS-preorder labeling of g (from vertex 0 following
// lowest live ports first): the classical labeling that yields one
// interval per arc on trees and few intervals on tree-like graphs.
func DFSLabels(g *graph.Graph) []int32 {
	n := g.Order()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	counter := int32(0)
	type frame struct {
		node graph.NodeID
		next graph.Port
	}
	stack := []frame{{node: 0, next: 1}}
	labels[0] = counter
	counter++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if int(f.next) > g.Degree(f.node) {
			stack = stack[:len(stack)-1]
			continue
		}
		p := f.next
		f.next++
		v := g.Neighbor(f.node, p)
		if v == graph.DeadEnd || labels[v] != -1 {
			continue
		}
		labels[v] = counter
		counter++
		stack = append(stack, frame{node: v, next: 1})
	}
	return labels
}

// HeaderBits implements routing.HeaderSizer: interval headers carry only
// the destination label.
func (s *Scheme) HeaderBits(h routing.Header) int {
	return coding.BitsFor(uint64(len(s.label)))
}
