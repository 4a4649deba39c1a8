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
// first router whose row has a destination without a first arc. Each row
// starts as the MinPort row of shortest.ArcRows; one in-order pass then
// reports the first destination without a port, applies RunGreedy's
// keep-previous-port rule and counts the runs (and the runs of length
// two or more) encodedRowBits would count, so most rows are priced
// without a second scan.
func (s *Scheme) buildRows(apsp *shortest.APSP, w shortest.Weights, pol Policy, lo, hi int) error {
	n := len(s.ports)
	var av shortest.ArcRows
	for x := lo; x < hi; x++ {
		xi := graph.NodeID(x)
		arcs := s.g.Arcs(xi)
		av.Load(apsp, arcs, xi, w)
		row := make([]graph.Port, n)
		av.MinPortRow(row)
		runs, r2, eq, prev := 0, 0, 0, graph.NoPort
		for v, p := range row {
			if v == x {
				continue
			}
			if p == graph.NoPort {
				metric := "shortest"
				if w != nil {
					metric = "minimum-cost"
				}
				return fmt.Errorf("table: no %s first arc %d->%d", metric, x, v)
			}
			if pol == RunGreedy && prev != graph.NoPort && p != prev && av.Keeps(prev, v) {
				p = prev
				row[v] = p
			}
			was := eq
			eq = 0
			if p == prev {
				eq = 1
			}
			runs += 1 - eq
			r2 += eq &^ was
			prev = p
		}
		s.ports[x] = row
		s.bits[x] = pricedRowBits(row, xi, len(arcs), runs, r2)
	}
	return nil
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
	runs, r2, eq, prev := 0, 0, 0, graph.NoPort
	for v, p := range row {
		if graph.NodeID(v) == x {
			continue
		}
		was := eq
		eq = 0
		if p == prev {
			eq = 1
		}
		runs += 1 - eq
		r2 += eq &^ was
		prev = p
	}
	return pricedRowBits(row, x, deg, runs, r2)
}

// pricedRowBits is encodedRowBits for a row whose runs, merged across
// the skipped x, are already counted: runs of them, r2 of length two or
// more (each counted where eq, "v extends the run before it", rises
// from 0 to 1, so the counting loops stay branch-free). Every run
// costs at least a 1-bit gamma plus its port, and a run of length two
// or more at least a 3-bit gamma, so a row with runs*(1+w) + 2*r2 >=
// raw is raw without pricing its runs; only the others are priced
// exactly.
func pricedRowBits(row []graph.Port, x graph.NodeID, deg, runs, r2 int) int {
	w := coding.BitsFor(uint64(deg))
	n := len(row)
	raw := (n - 1) * w
	if runs*(1+w)+2*r2 >= raw {
		return 1 + raw
	}
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
// A raw row goes out as two bulk runs of port-1 fields, around x.
func writeRowCode(w *coding.BitWriter, row []graph.Port, x graph.NodeID, deg, bits int) {
	wbits := coding.BitsFor(uint64(deg))
	n := len(row)
	raw := (n - 1) * wbits
	if bits-1 >= raw {
		w.WriteBit(0) // raw
		w.WriteFixedFrom(row[:x], 1, wbits)
		w.WriteFixedFrom(row[x+1:], 1, wbits)
		return
	}
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
}

// decodeRowInto parses one row code into a caller-provided row of n
// entries — a fresh row for the heap decoder, one reused scratch row
// per worker for the lazy mapped reader's stripe proof — and accepts it
// only if it is the code writeRowCode emits for the row it decodes to:
//
//	raw (flag 0): every port below deg, and the row's RLE cost, with
//	runs merged across the skipped x as encodedRowBits merges them, at
//	least its raw cost;
//	RLE (flag 1): every port below deg, no run past the row's end, no
//	two consecutive runs (across x too) with one port, and a cost
//	strictly below the raw cost.
//
// Gamma codes and fixed-width fields are bijective, so these checks are
// the re-encode gate's accept set, proven in the decoding pass. row's
// prior contents do not affect the verdict; on success every entry
// except row[x] is assigned, and row[x] is left as it was.
func decodeRowInto(r *coding.BitReader, row []graph.Port, x graph.NodeID, deg int) error {
	wbits := coding.BitsFor(uint64(deg))
	n := len(row)
	raw := (n - 1) * wbits
	start := r.Pos()
	flag, err := r.ReadBit()
	if err != nil {
		return err
	}
	if flag == 0 {
		// The fields land in row as port-1 and are checked and shifted
		// to ports here, counting the runs merged across x. row[x] is
		// not touched.
		if err := r.ReadFixedInto(row[:x], wbits); err != nil {
			return err
		}
		if err := r.ReadFixedInto(row[x+1:], wbits); err != nil {
			return err
		}
		runs, r2, eq, prev := 0, 0, 0, graph.NoPort
		for v, b := range row {
			if graph.NodeID(v) == x {
				continue
			}
			if uint32(b) >= uint32(deg) {
				return fmt.Errorf("table: decoded port %d exceeds degree %d", int64(uint32(b))+1, deg)
			}
			p := b + 1
			row[v] = p
			was := eq
			eq = 0
			if p == prev {
				eq = 1
			}
			runs += 1 - eq
			r2 += eq &^ was
			prev = p
		}
		if bits := pricedRowBits(row, x, deg, runs, r2); bits-1 < raw {
			return fmt.Errorf("table: raw row of %d bits where RLE takes %d", raw, bits-1)
		}
		return nil
	}
	// RLE: runs cover destinations in label order, skipping x.
	prev := graph.NoPort
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
		if p == prev {
			return fmt.Errorf("table: RLE splits a run of port %d", p)
		}
		prev = p
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
	if rle := r.Pos() - start - 1; rle >= raw {
		return fmt.Errorf("table: RLE row of %d bits where raw takes %d", rle, raw)
	}
	return nil
}

var _ routing.Scheme = (*Scheme)(nil)

// HeaderBits implements routing.HeaderSizer: table headers carry only the
// destination identifier.
func (s *Scheme) HeaderBits(h routing.Header) int {
	return coding.BitsFor(uint64(len(s.ports)))
}
