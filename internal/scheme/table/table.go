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
//
// A Scheme holds exactly those codes, in stripes of lazyStripe routers:
// each stripe keeps its routers' code bytes, one field width per router
// and the decoded row of each run-length compressed router, and nothing
// else. Every producer fills the same stripes. New and NewWeighted write
// them, DecodePayload proves them in one pass over a payload, WithRows
// and Repair rewrite only the stripes they patch, and NewLazy (the
// mapped container reader, lazy.go) leaves them to be proven on first
// touch. A raw router answers a lookup from its packed field, so a
// scheme holds about the bits of its wire payload instead of 32 bits
// per (router, destination).
package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/par"
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

// Scheme is a routing-table scheme instance bound to one graph. It is
// safe for concurrent readers: a stripe is proven at most once, under
// its own sync.Once, and is read-only afterwards.
type Scheme struct {
	g       *graph.Graph
	hdr     []header               // hdr[v] = header(v); Init hands out pointers, so no per-route boxing
	stripes []*stripe              // stripes[si] holds routers [si*lazyStripe, min((si+1)*lazyStripe, n))
	payload func() ([]byte, error) // the payload unproven stripes are cut from (NewLazy)
}

// lazyStripe is the number of routers a stripe holds, and so the unit
// of a build claim and of a proof on first touch. 256 rows amortize the
// payload fetch and the fault guard while keeping the worst-case wasted
// proof (touch one router, prove 256) far below the O(n) rows a heap
// load pays per router.
const lazyStripe = 256

// stripe is the store of one stripe's routers. Router lo+i's canonical
// row code is bits [offs[i], offs[i+1]) of the stripe's source (a
// payload, or a build's own bit count), so its length is its LocalBits;
// code holds those codes from source byte offs[0]/8 on (code[0] holds
// source bit offs[0]&^7, see bit), followed by 8 zero bytes for
// rawPort's 64-bit load. wid[i] is the field width BitsFor(deg), or
// rleWidth when the code is run-length compressed; then rle[i] is its
// decoded row (NoPort at the router), which lookups read instead of
// walking runs. offs is set when the stripe is made; everything else is
// written inside once, which a producer that wrote or proved the codes
// itself leaves done. A stripe is immutable once proven, so patched
// schemes share the stripes they did not touch.
type stripe struct {
	offs []uint64
	once sync.Once
	code []byte
	wid  []uint8
	rle  [][]graph.Port
	err  error // the proof's error: a poisoned stripe answers NoPort
}

// bit returns the bit of code at which router lo+i's code starts.
func (st *stripe) bit(i int) uint64 { return st.offs[i] - st.offs[0]&^7 }

// keep records router lo+i's field width for a router of degree deg
// and, when row is non-nil (an RLE code, see rleCopy), its decoded row.
func (st *stripe) keep(i, deg int, row []graph.Port) {
	st.wid[i] = uint8(coding.BitsFor(uint64(deg)))
	if row != nil {
		if st.rle == nil {
			st.rle = make([][]graph.Port, len(st.wid))
		}
		st.rle[i], st.wid[i] = row, rleWidth
	}
}

// cut copies the stripe's code bytes out of blob, the source its offs
// index, and pads them for rawPort.
func (st *stripe) cut(blob []byte) {
	first, last := st.offs[0]/8, (st.offs[len(st.offs)-1]+7)/8
	st.code = make([]byte, last-first+8)
	copy(st.code, blob[first:last])
}

// stripeBuf writes one stripe's codes into one buffer: the build,
// DecodePayload and WithRows fill a stripe router by router, from a
// port row (write) or from a code already proven (add), and finish
// seals it.
type stripeBuf struct {
	bw coding.BitWriter
	st *stripe
}

// start begins stripe si of s, growing the buffer once to a bound on
// the stripe's codes: a canonical code is at most the raw one,
// 1 + (n-1)·BitsFor(deg) bits.
func (b *stripeBuf) start(s *Scheme, si int) {
	lo, hi := s.span(si)
	bits := 0
	for x := lo; x < hi; x++ {
		bits += 1 + (len(s.hdr)-1)*coding.BitsFor(uint64(s.g.Degree(graph.NodeID(x))))
	}
	b.bw.Reset()
	b.bw.Grow(bits)
	b.st = &stripe{offs: make([]uint64, 1, hi-lo+1), wid: make([]uint8, hi-lo)}
}

// write appends router x's canonical code of row, which bits (its
// encodedRowBits) priced, for a router of degree deg.
func (b *stripeBuf) write(row []graph.Port, x graph.NodeID, deg, bits int) {
	writeRowCode(&b.bw, row, x, deg, bits)
	b.add(nil, 0, 0, deg, rleCopy(row, x, deg, bits))
}

// add appends the proven code at bits [off, off+nbits) of src, of a
// router of degree deg, with row its decoded row if the code is RLE.
func (b *stripeBuf) add(src []byte, off, nbits, deg int, row []graph.Port) {
	b.bw.WriteBitsFrom(src, off, nbits)
	st := b.st
	st.offs = append(st.offs, uint64(b.bw.Len()))
	st.keep(len(st.offs)-2, deg, row)
}

// finish seals the stripe: its codes are copied out, padded, and its
// proof is marked done.
func (b *stripeBuf) finish() *stripe {
	st := b.st
	st.cut(b.bw.Bytes())
	st.once.Do(func() {})
	return st
}

// rleCopy returns a copy of row, with NoPort at x, when router x's
// canonical code of bits bits is run-length compressed, and nil when it
// is raw: a canonical RLE code is strictly shorter than the raw one.
func rleCopy(row []graph.Port, x graph.NodeID, deg, bits int) []graph.Port {
	if bits-1 >= (len(row)-1)*coding.BitsFor(uint64(deg)) {
		return nil
	}
	c := slices.Clone(row)
	c[x] = graph.NoPort
	return c
}

// rleWidth marks, in a stripe's width byte, a router whose code is
// run-length compressed and whose lookups read its decoded row. A field
// width BitsFor(deg) never exceeds 64.
const rleWidth = 0xff

// proveRow is the payload proof of one router, shared by DecodePayload
// and the proof of a lazy stripe: the code at r's position must be
// canonical (decodeRowInto without keep, with scratch, whose prior
// contents do not matter). It returns a fresh copy of the row when the
// code is RLE and nil when it is raw, where rawPort answers from the
// code itself, so a raw row is proven on its packed fields and never
// unpacked unless its RLE price is in doubt.
func proveRow(r *coding.BitReader, scratch []graph.Port, x graph.NodeID, deg int) ([]graph.Port, error) {
	start := r.Pos()
	if err := decodeRowInto(r, scratch, x, deg, false); err != nil {
		return nil, err
	}
	return rleCopy(scratch, x, deg, r.Pos()-start), nil
}

// rawPort answers router x's raw row toward dst (dst != x) from its
// code starting at bit off of code: the w-bit field at
// off+1+(dst-[dst>x])*w, plus one. code must extend at least 8 bytes
// from the field's first byte, which a stripe's pad guarantees. w == 0
// (degree 1) reads no bits and answers port 1.
func rawPort(code []byte, off uint64, w uint, x, dst graph.NodeID) graph.Port {
	d := uint64(dst)
	if dst > x {
		d-- // x has no field of its own
	}
	bit := off + 1 + d*uint64(w)
	return graph.Port(binary.BigEndian.Uint64(code[bit>>3:])<<(bit&7)>>(64-w)) + 1
}

// newScheme allocates the shared shell of every producer, freezing the
// graph to its CSR layout so construction scans and later route
// simulations iterate flat arcs.
func newScheme(g *graph.Graph) *Scheme {
	g.Freeze()
	n := g.Order()
	s := &Scheme{g: g, hdr: make([]header, n), stripes: make([]*stripe, (n+lazyStripe-1)/lazyStripe)}
	for v := range s.hdr {
		s.hdr[v] = header(v)
	}
	return s
}

// span returns the routers [lo, hi) of stripe si.
func (s *Scheme) span(si int) (lo, hi int) {
	lo = si * lazyStripe
	return lo, min(lo+lazyStripe, len(s.hdr))
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

// build is the shared body of New (w == nil, hop metric) and
// NewWeighted: it checks the table and fans the stripes out over a
// par.For pool of GOMAXPROCS workers, one stripe per claim, each
// written into one buffer. Rows are independent — RunGreedy's chain
// state never leaves its row — so the finished scheme is the same for
// every worker count. A table that admits no first arc for some pair
// fails the build with the error of the lowest such router (par.For
// reports the lowest failed claim, and a claim stops at its first
// failing router), which is also what a serial build reports, so the
// error text does not depend on the worker count either.
func build(g *graph.Graph, apsp *shortest.APSP, w shortest.Weights, pol Policy) (*Scheme, error) {
	n := g.Order()
	if apsp.Order() != n {
		return nil, fmt.Errorf("table: apsp order %d, graph order %d", apsp.Order(), n)
	}
	if !apsp.Connected() {
		return nil, graph.ErrNotConnected
	}
	s := newScheme(g)
	newScratch := func() *rowScratch { return &rowScratch{row: make([]graph.Port, n)} }
	err := par.For(0, len(s.stripes), newScratch, func(sc *rowScratch, si int) error {
		return s.buildStripe(apsp, w, pol, si, sc)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// rowScratch is one build worker's scratch: the first-arc view, a row
// of n ports and the stripe buffer the codes go to.
type rowScratch struct {
	av  shortest.ArcRows
	row []graph.Port
	sb  stripeBuf
}

// buildStripe derives the rows of stripe si into s, stopping at the
// first router whose row has a destination without a first arc. Each row
// starts as the MinPort row of shortest.ArcRows; one in-order pass then
// reports the first destination without a port, applies RunGreedy's
// keep-previous-port rule and counts the runs (and the runs of length
// two or more) encodedRowBits would count, so most rows are priced
// without a second scan. The row is derived in the worker's scratch
// and kept only as its code.
func (s *Scheme) buildStripe(apsp *shortest.APSP, w shortest.Weights, pol Policy, si int, sc *rowScratch) error {
	av, row := &sc.av, sc.row
	lo, hi := s.span(si)
	sc.sb.start(s, si)
	for x := lo; x < hi; x++ {
		xi := graph.NodeID(x)
		arcs := s.g.Arcs(xi)
		av.Load(apsp, arcs, xi, w)
		clear(row)
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
		sc.sb.write(row, xi, len(arcs), pricedRowBits(row, xi, len(arcs), runs, r2))
	}
	s.stripes[si] = sc.sb.finish()
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

// Port implements routing.Function. A poisoned stripe answers NoPort,
// turning payload corruption into per-route errors. An RLE router
// answers from its decoded row, a raw one from its field in the
// stripe's code (rawPort).
func (s *Scheme) Port(x graph.NodeID, h routing.Header) graph.Port {
	dst := graph.NodeID(*h.(*header))
	if x == dst {
		return graph.NoPort
	}
	si := int(x) / lazyStripe
	st := s.stripe(si, nil)
	if st.err != nil {
		return graph.NoPort
	}
	i := int(x) - si*lazyStripe
	w := uint(st.wid[i])
	if w == rleWidth {
		return st.rle[i][dst]
	}
	return rawPort(st.code, st.bit(i), w, x, dst)
}

// Next implements routing.Function.
func (s *Scheme) Next(x graph.NodeID, h routing.Header) routing.Header { return h }

// RowCopy returns a copy of router x's full port row (NoPort at x) —
// the shape WithRows and the schemeio delta codec consume. A lazy
// stripe is proven first; a poisoned one returns its error.
func (s *Scheme) RowCopy(x graph.NodeID) ([]graph.Port, error) {
	row := make([]graph.Port, len(s.hdr))
	if err := s.rowInto(x, row, nil); err != nil {
		return nil, err
	}
	return row, nil
}

// rowInto decodes router x's row into row (n entries), NoPort at x,
// proving a lazy stripe with scratch first (see stripe). A stored code
// was proven or written canonical, so a raw one is unpacked without a
// second proof (unpackRaw, from after the flag bit).
func (s *Scheme) rowInto(x graph.NodeID, row, scratch []graph.Port) error {
	st, i := s.stripe(int(x)/lazyStripe, scratch), int(x)%lazyStripe
	if st.err != nil {
		return st.err
	}
	if st.wid[i] == rleWidth {
		copy(row, st.rle[i])
		return nil
	}
	unpackRaw(coding.NewBitReaderAt(st.code, int(st.bit(i))+1, int(st.bit(i+1))), row, x, int(st.wid[i]))
	row[x] = graph.NoPort
	return nil
}

// unpackRaw unpacks the fields of a proven raw code, which r holds
// exactly (one w-bit field of port-1 per destination but x), into row
// as ports, leaving row[x] as it was.
func unpackRaw(r *coding.BitReader, row []graph.Port, x graph.NodeID, w int) {
	_ = r.ReadFixedInto(row[:x], w) // in bounds: r holds exactly these fields
	_ = r.ReadFixedInto(row[x+1:], w)
	for v := range row {
		row[v]++
	}
	row[x]--
}

// LocalBits implements routing.LocalCoder straight off the stripe's
// offsets: a router's code is exactly its LocalBits, so the memory
// report needs no decoding at all, not even of a lazy stripe.
func (s *Scheme) LocalBits(x graph.NodeID) int {
	st, i := s.stripes[int(x)/lazyStripe], int(x)%lazyStripe
	return int(st.offs[i+1] - st.offs[i])
}

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
	if rawByBound(runs, r2, w, raw) {
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

// portError restates a raw row scan's out-of-range field as the port
// it decodes to; other errors pass through.
func portError(err error, deg int) error {
	var fe *coding.FieldRangeError
	if errors.As(err, &fe) {
		return fmt.Errorf("table: decoded port %d exceeds degree %d", fe.Value+1, deg)
	}
	return err
}

// rawByBound reports whether a row of runs runs, r2 of them of length
// two or more, with w-bit ports, is raw by the lower bound on its RLE
// cost alone (see pricedRowBits).
func rawByBound(runs, r2, w, raw int) bool { return runs*(1+w)+2*r2 >= raw }

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
// entries — a fresh row for a delta row (keep), one reused scratch row
// for a payload proof (proveRow) — and accepts it only if it is the
// code writeRowCode emits for the row it decodes to:
//
//	raw (flag 0): every port below deg, and the row's RLE cost, with
//	runs merged across the skipped x as encodedRowBits merges them, at
//	least its raw cost;
//	RLE (flag 1): every port below deg, no run past the row's end, no
//	two consecutive runs (across x too) with one port, and a cost
//	strictly below the raw cost.
//
// Gamma codes and fixed-width fields are bijective, so these checks are
// the re-encode gate's accept set, proven in the decoding pass. A raw
// code is proven on its packed fields (coding.(*BitReader).ScanFixed)
// and unpacked into row only when keep is set or its RLE price has to
// be computed exactly; an RLE code is always decoded into row. row's
// prior contents do not affect the verdict; on success with keep, or
// with an RLE code, every entry except row[x] is assigned, and row[x]
// is left as it was.
func decodeRowInto(r *coding.BitReader, row []graph.Port, x graph.NodeID, deg int, keep bool) error {
	wbits := coding.BitsFor(uint64(deg))
	n := len(row)
	raw := (n - 1) * wbits
	start := r.Pos()
	flag, err := r.ReadBit()
	if err != nil {
		return err
	}
	if flag == 0 {
		// The fields are proven on the packed code: ScanFixed checks
		// every port-1 below deg and counts the runs, merged across x
		// (which has no field). They are unpacked into row only when the
		// caller keeps it or the bound leaves the RLE price in doubt.
		fields := r.Pos()
		runs, r2, err := r.ScanFixed(n-1, wbits, uint64(deg))
		if err != nil {
			return portError(err, deg)
		}
		if !keep && rawByBound(runs, r2, wbits, raw) {
			return nil
		}
		unpackRaw(coding.NewBitReaderAt(r.Bytes(), fields, r.Pos()), row, x, wbits)
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
	return coding.BitsFor(uint64(len(s.hdr)))
}
