package table

// Lazy proof: NewLazy returns the mapped container's view of a
// routing-table scheme. Instead of proving every router's code at load
// time (the dominant cost of opening a big table file), it keeps only
// the per-router bit-offset index from the container and proves a
// stripe on first touch, into the same store every other producer
// fills. A shard that is only ever asked about a slice of the source
// space therefore pays proof cost proportional to the routers it
// actually routes through.
//
// Correctness discipline matches DecodePayload: the stripe's code bytes
// are copied out of the payload first, and each row span is then
// decoded from the copy with a reader confined to exactly its
// [offs[i], offs[i+1]) bits, must consume the span exactly, and must be
// the one code the canonical row coder emits for its row — proven by
// decodeRowInto, the per-span restatement of Decode's "decodes
// successfully == re-encodes byte-identically" gate without the
// re-encode. A raw row is proven on its packed fields, a 64-bit word at
// a time (coding.(*BitReader).ScanFixed), and unpacked into the scratch
// row reused across the stripe only when its RLE price is in doubt; an
// RLE row is decoded into that scratch row and kept. So the bytes served are
// the bytes proven, and no lookup reads the container backing again. A
// stripe that fails any check is poisoned, not fatal: its routers
// answer NoPort, so a corrupt span surfaces as a per-route RouteError
// from the simulator ("delivered at wrong node"), never as a panic or a
// wrong delivery, and RowCopy, WithRows, Repair and schemeio.Encode
// return its error. So does a stripe whose bytes vanish under it — a
// mapped file truncated in place — since each stripe is copied and
// proven under GuardFault, which turns the memory fault into
// ErrBackingFault.

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/par"
)

// NewLazy wraps a table payload for lazy routing on g. offs are the
// n+1 absolute bit offsets of the router spans inside the payload
// (container index section), which the stripes keep as their offsets;
// they must be nondecreasing and end inside the payload, which
// schemeio's container parser checks before it calls NewLazy. payload
// fetches the scheme-section bytes and is called by every stripe's
// proof, from any goroutine, so it must resolve them once and then
// return the same bytes (schemeio's Mapped.payloadBytes does).
func NewLazy(g *graph.Graph, offs []uint64, payload func() ([]byte, error)) *Scheme {
	s := newScheme(g)
	s.payload = payload
	stripes := make([]stripe, len(s.stripes))
	for si := range stripes {
		lo, hi := s.span(si)
		stripes[si].offs = offs[lo : hi+1]
		s.stripes[si] = &stripes[si]
	}
	return s
}

// stripe returns stripe si, proving it on first use with scratch (see
// prove). A stripe built, decoded or patched in place is already done.
func (s *Scheme) stripe(si int, scratch []graph.Port) *stripe {
	st := s.stripes[si]
	st.once.Do(func() {
		st.err = GuardFault(func() error { return s.prove(st, si, scratch) })
	})
	return st
}

// prove fills lazy stripe si: it cuts the stripe's code bytes out of
// the payload, then proves every router's span canonical with proveSpan,
// with scratch (n ports, reused row after row; nil allocates one) for
// the rows that must be unpacked, and checks it for exact consumption.
func (s *Scheme) prove(st *stripe, si int, scratch []graph.Port) error {
	blob, err := s.payload()
	if err != nil {
		return err
	}
	st.cut(blob)
	if scratch == nil {
		scratch = make([]graph.Port, len(s.hdr))
	}
	lo, _ := s.span(si)
	st.wid = make([]uint8, len(st.offs)-1)
	for i := range st.wid {
		x := graph.NodeID(lo + i)
		deg := s.g.Degree(x)
		row, err := proveSpan(st.code, int(st.bit(i)), int(st.bit(i+1)), scratch, x, deg)
		if err != nil {
			return fmt.Errorf("table: router %d: %w", x, err)
		}
		st.keep(i, deg, row)
	}
	return nil
}

// proveSpan is the stripe proof of one router: proveRow over the code
// at bits [off, end) of code, which must be exactly end-off bits long.
func proveSpan(code []byte, off, end int, scratch []graph.Port, x graph.NodeID, deg int) ([]graph.Port, error) {
	r := coding.NewBitReaderAt(code, off, end)
	row, err := proveRow(r, scratch, x, deg)
	if err != nil {
		return nil, err
	}
	if r.Pos() != end {
		return nil, fmt.Errorf("code is %d bits, index says %d", r.Pos()-off, end-off)
	}
	return row, nil
}

// Preload proves every stripe (and hence verifies the whole payload)
// on a par.For pool of GOMAXPROCS workers, each with its own scratch
// row, and returns the lowest-indexed poisoned stripe's error, which
// does not depend on the worker count: par.For claims stripes in
// order and reports the lowest failed claim. After a failure the
// stripes past it may stay unproven until first touch. A scheme that
// was not opened lazily has every stripe proven already. Serving never
// needs to call it.
func (s *Scheme) Preload() error {
	newScratch := func() []graph.Port { return make([]graph.Port, len(s.hdr)) }
	return par.For(0, len(s.stripes), newScratch, func(scratch []graph.Port, si int) error {
		return s.stripe(si, scratch).err
	})
}
