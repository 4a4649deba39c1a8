// Package table implements full shortest-path routing tables — the
// universal scheme whose O(n log n) bits per router is the upper bound
// that Theorem 1 of the paper proves asymptotically optimal for every
// stretch factor below 2.
//
// Every router x stores one output port per destination. The local code
// measured by LocalBits is the shorter of two self-delimiting encodings:
// the raw row ((n-1)·ceil(log2 deg(x)) bits) and a run-length compressed
// row (useful on graphs whose tables happen to be regular, e.g. cycles).
// One flag bit records the choice, so the decoder is fixed in advance as
// the coding-strategy definition requires.
package table

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/shortest"
)

// Policy selects which shortest-path first arc a table prefers when
// several exist.
type Policy int

const (
	// MinPort always picks the lowest feasible port. Deterministic and
	// adversary-friendly: on the constraint graphs it reproduces exactly
	// the matrix entries, as the forced pairs admit a single port anyway.
	MinPort Policy = iota
	// RunGreedy scans destinations in label order and keeps the previous
	// destination's port when it is still a shortest first arc, maximizing
	// run lengths for the RLE encoder. Used by the compression ablation.
	RunGreedy
)

// Scheme is a routing-table scheme instance bound to one graph.
type Scheme struct {
	g     *graph.Graph
	ports [][]graph.Port // ports[x][v] = output port at x toward v; NoPort at v==x
	bits  []int          // memoized LocalBits
	hdr   []header       // hdr[v] = header(v); Init hands out pointers, so no per-route boxing
}

// newScheme allocates the shared shell of New and NewWeighted, freezing
// the graph to its CSR layout so construction scans and later route
// simulations iterate flat arcs.
func newScheme(g *graph.Graph, n int) *Scheme {
	g.Freeze()
	s := &Scheme{g: g, ports: make([][]graph.Port, n), bits: make([]int, n), hdr: make([]header, n)}
	for v := range s.hdr {
		s.hdr[v] = header(v)
	}
	return s
}

// New builds shortest-path routing tables for g under the given policy.
// apsp may be nil, in which case the all-pairs table is built here with
// the pooled batch kernel. Routers are derived in parallel over
// GOMAXPROCS workers (see build); the tables do not depend on the
// worker count.
func New(g *graph.Graph, apsp *shortest.APSP, pol Policy) (*Scheme, error) {
	if apsp == nil {
		apsp = shortest.NewAPSPParallel(g, 0)
	}
	return build(g, apsp, nil, pol)
}

// buildClaim is the number of consecutive routers a build worker claims
// at a time, the same granularity as one MS-BFS batch of NewAPSPParallel.
const buildClaim = 64

// build is the shared body of New (w == nil, hop metric) and
// NewWeighted: it checks the table and fans the routers out over
// GOMAXPROCS workers in claims of buildClaim. Rows are independent —
// RunGreedy's chain state never leaves its row — so the finished scheme
// is the same for every worker count. A table that admits no first arc
// for some pair fails the build with the error of the lowest such
// router, which is also what a serial build reports, so the error text
// does not depend on the worker count either.
func build(g *graph.Graph, apsp *shortest.APSP, w shortest.Weights, pol Policy) (*Scheme, error) {
	n := g.Order()
	if apsp.Order() != n {
		return nil, fmt.Errorf("table: apsp order %d, graph order %d", apsp.Order(), n)
	}
	if !apsp.Connected() {
		return nil, graph.ErrNotConnected
	}
	s := newScheme(g, n)
	claims := (n + buildClaim - 1) / buildClaim
	workers := min(runtime.GOMAXPROCS(0), claims)
	if workers <= 1 {
		if err := s.buildRows(apsp, w, pol, 0, n); err != nil {
			return nil, err
		}
		return s, nil
	}
	errs := make([]error, claims)
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				lo := c * buildClaim
				errs[c] = s.buildRows(apsp, w, pol, lo, min(lo+buildClaim, n))
			}
		}()
	}
	for c := range claims {
		next <- c
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildRows derives the rows of routers [lo, hi) into s, stopping at the
// first router whose row has a destination without a first arc.
func (s *Scheme) buildRows(apsp *shortest.APSP, w shortest.Weights, pol Policy, lo, hi int) error {
	n := len(s.ports)
	var av arcView
	for x := lo; x < hi; x++ {
		xi := graph.NodeID(x)
		arcs := s.g.Arcs(xi)
		av.load(apsp, arcs, xi, w)
		row := make([]graph.Port, n)
		prev := graph.NoPort
		for v := 0; v < n; v++ {
			if v == x {
				continue
			}
			chosen := av.pick(v, prev)
			if chosen == graph.NoPort {
				metric := "shortest"
				if w != nil {
					metric = "minimum-cost"
				}
				return fmt.Errorf("table: no %s first arc %d->%d", metric, x, v)
			}
			row[v] = chosen
			if pol == RunGreedy {
				prev = chosen
			}
		}
		s.ports[x] = row
		s.bits[x] = encodedRowBits(row, xi, len(arcs))
	}
	return nil
}

// arcView is router x's row-major view of the distance table. Distances
// are symmetric, so d(v,x) = Row(x)[v] and d(v,w) = Row(w)[v]: every
// entry of x's row reads only Row(x) and the rows of x's neighbours,
// deg+1 rows streamed in destination order, instead of a different
// n-entry row of the matrix per destination.
type arcView struct {
	dx   []int32   // Row(x)
	nb   [][]int32 // nb[i] = row of the neighbour behind port i+1; nil at a dead slot
	cost []int32   // cost[i] = cost of port i+1
	ones []int32   // the hop metric's all-ones costs, grown to the largest degree loaded
}

// load points the view at router x, whose arcs are arcs, under weights w
// (nil for the hop metric), reusing the view's slices.
func (a *arcView) load(apsp *shortest.APSP, arcs []graph.NodeID, x graph.NodeID, w shortest.Weights) {
	a.dx = apsp.Row(x)
	a.nb = a.nb[:0]
	for _, nb := range arcs {
		if nb == graph.DeadEnd {
			a.nb = append(a.nb, nil) // hole left by a removed edge
			continue
		}
		a.nb = append(a.nb, apsp.Row(nb))
	}
	if w != nil {
		a.cost = w[x]
		return
	}
	for len(a.ones) < len(arcs) {
		a.ones = append(a.ones, 1)
	}
	a.cost = a.ones[:len(arcs)]
}

// pick returns the port x uses toward v: prev when it still begins a
// minimum-cost path (RunGreedy's run extension; NoPort skips the check),
// else the lowest live port that does, else NoPort. Sums run in int64:
// with near-MaxInt32 costs the int32 sum d(w,v) + cost can wrap negative
// and hide (or fake) a first arc. For the hop metric the int64 test is
// the int32 test d(w,v)+1 == d(x,v) exactly, since distances are never
// negative.
func (a *arcView) pick(v int, prev graph.Port) graph.Port {
	d := int64(a.dx[v])
	if prev != graph.NoPort {
		if r := a.nb[prev-1]; r != nil && int64(r[v])+int64(a.cost[prev-1]) == d {
			return prev
		}
	}
	for i, r := range a.nb {
		if r != nil && int64(r[v])+int64(a.cost[i]) == d {
			return graph.Port(i + 1)
		}
	}
	return graph.NoPort
}

// Name implements routing.Scheme.
func (s *Scheme) Name() string { return "routing-tables" }

// header is just the destination id; tables never rewrite headers. Init
// returns a pointer into the scheme's precomputed hdr array: storing a
// pointer in the Header interface costs no allocation, while boxing the
// integer value itself would allocate once per routed pair.
type header graph.NodeID

// Init implements routing.Function.
func (s *Scheme) Init(src, dst graph.NodeID) routing.Header { return &s.hdr[dst] }

// Port implements routing.Function.
func (s *Scheme) Port(x graph.NodeID, h routing.Header) graph.Port {
	dst := graph.NodeID(*h.(*header))
	if x == dst {
		return graph.NoPort
	}
	return s.ports[x][dst]
}

// Next implements routing.Function.
func (s *Scheme) Next(x graph.NodeID, h routing.Header) routing.Header { return h }

// PortEntry returns the stored port at x toward v (NoPort when x == v),
// without simulating. The constraint-rebuild experiment reads tables
// through this.
func (s *Scheme) PortEntry(x, v graph.NodeID) graph.Port { return s.ports[x][v] }

// RowCopy returns a copy of router x's full port row (NoPort at x) —
// the shape WithRows and the schemeio delta codec consume.
func (s *Scheme) RowCopy(x graph.NodeID) []graph.Port {
	row := make([]graph.Port, len(s.ports[x]))
	copy(row, s.ports[x])
	return row
}

// LocalBits implements routing.LocalCoder.
func (s *Scheme) LocalBits(x graph.NodeID) int { return s.bits[x] }

// encodedRowBits computes the exact bit cost of the fixed row coding:
//
//	1 flag bit
//	raw:  (n-1) * ceil(log2 deg) bits
//	rle:  per run, gamma(runLength) + ceil(log2 deg) bits
//
// whichever is shorter. Degree and n are not charged: they are part of the
// router's wiring, known to the fixed decoder.
func encodedRowBits(row []graph.Port, x graph.NodeID, deg int) int {
	w := coding.BitsFor(uint64(deg))
	n := len(row)
	raw := (n - 1) * w
	rle := 0
	i := 0
	for i < n {
		if graph.NodeID(i) == x {
			i++
			continue
		}
		j := i
		for j < n && (graph.NodeID(j) == x || row[j] == row[i]) {
			j++
		}
		runLen := j - i
		if graph.NodeID(x) > graph.NodeID(i) && graph.NodeID(x) < graph.NodeID(j) {
			runLen-- // x itself sits inside the run and is skipped
		}
		rle += coding.GammaLen(uint64(runLen)) + w
		i = j
	}
	if rle < raw {
		return 1 + rle
	}
	return 1 + raw
}

// writeRowCode appends router x's row code, the fixed coding strategy
// LocalBits meters: one flag bit, then the raw or run-length-compressed
// row, choosing the branch that bits (a memoized encodedRowBits result
// for this row) priced cheaper. The code is self-delimiting given
// (n, x, deg), so rows concatenate on the wire without per-row framing.
func writeRowCode(w *coding.BitWriter, row []graph.Port, x graph.NodeID, deg, bits int) {
	wbits := coding.BitsFor(uint64(deg))
	n := len(row)
	raw := (n - 1) * wbits
	if bits-1 < raw {
		w.WriteBit(1) // RLE
		i := 0
		for i < n {
			if graph.NodeID(i) == x {
				i++
				continue
			}
			j := i
			for j < n && (graph.NodeID(j) == x || row[j] == row[i]) {
				j++
			}
			runLen := j - i
			if graph.NodeID(x) > graph.NodeID(i) && graph.NodeID(x) < graph.NodeID(j) {
				runLen--
			}
			w.WriteGamma(uint64(runLen))
			w.WriteBits(uint64(row[i]-1), wbits)
			i = j
		}
	} else {
		w.WriteBit(0) // raw
		for v := 0; v < n; v++ {
			if graph.NodeID(v) == x {
				continue
			}
			w.WriteBits(uint64(row[v]-1), wbits)
		}
	}
}

// decodeRowInto parses one row code into a caller-provided row of n
// entries — the arena form the lazy mapped reader uses to decode a
// whole stripe of routers into one contiguous block. row must arrive
// zeroed (NoPort everywhere); on success every entry except row[x] is
// assigned.
func decodeRowInto(r *coding.BitReader, row []graph.Port, x graph.NodeID, deg int) error {
	wbits := coding.BitsFor(uint64(deg))
	n := len(row)
	flag, err := r.ReadBit()
	if err != nil {
		return err
	}
	if flag == 0 {
		for v := 0; v < n; v++ {
			if graph.NodeID(v) == x {
				continue
			}
			b, err := r.ReadBits(wbits)
			if err != nil {
				return err
			}
			if int(b) >= deg {
				return fmt.Errorf("table: decoded port %d exceeds degree %d", b+1, deg)
			}
			row[v] = graph.Port(b + 1)
		}
		return nil
	}
	// RLE: runs cover destinations in label order, skipping x.
	v := 0
	for v < n {
		if graph.NodeID(v) == x {
			v++
			continue
		}
		runLen, err := r.ReadGamma()
		if err != nil {
			return err
		}
		pbits, err := r.ReadBits(wbits)
		if err != nil {
			return err
		}
		if int(pbits) >= deg {
			return fmt.Errorf("table: decoded port %d exceeds degree %d", pbits+1, deg)
		}
		p := graph.Port(pbits + 1)
		for k := uint64(0); k < runLen; {
			if v >= n {
				return fmt.Errorf("table: RLE overruns row")
			}
			if graph.NodeID(v) == x {
				v++
				continue
			}
			row[v] = p
			v++
			k++
		}
	}
	return nil
}

var _ routing.Scheme = (*Scheme)(nil)

// HeaderBits implements routing.HeaderSizer: table headers carry only the
// destination identifier.
func (s *Scheme) HeaderBits(h routing.Header) int {
	return coding.BitsFor(uint64(len(s.ports)))
}
