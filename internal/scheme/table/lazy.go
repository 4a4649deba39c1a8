package table

// Lazy is the mapped-container view of a routing-table scheme: instead
// of materializing every router's row at load time (O(n^2) ports, the
// dominant cost of opening a big table file), it keeps only the
// per-router bit-offset index from the container and proves rows on
// first touch, a stripe of routers at a time. A shard that is only
// ever asked about a slice of the source space therefore pays proof
// cost proportional to the routers it actually routes through.
//
// A proven stripe is served from its own row codes, not from decoded
// ports: it keeps a heap copy of the stripe's code bytes, each router's
// field width BitsFor(deg) and, for the few routers whose code is
// run-length compressed, the decoded row. A raw row's answer toward dst
// is the w-bit field at bit offs[x]+1+(dst-[dst>x])*w, read with one
// unaligned 64-bit load, so a touched stripe holds the bits LocalBits
// meters for its routers (about 3.3 bits per destination on a random
// graph at n=4096) instead of 32 bits per destination.
//
// Correctness discipline matches the heap reader: each row span is
// decoded with a reader confined to exactly [offs[x], offs[x+1]) bits,
// must consume the span exactly, and must be the one code the canonical
// row coder emits for its row — proven by decodeRowInto, into a scratch
// row reused across the stripe, the per-span restatement of Decode's
// "decodes successfully == re-encodes byte-identically" gate without
// the re-encode. The proof reads the heap copy, so the bytes served are
// the bytes proven, and no lookup reads the container backing again. A
// stripe that fails any check is poisoned, not fatal: its routers
// answer NoPort, so a corrupt span surfaces as a per-route RouteError
// from the simulator ("delivered at wrong node"), never as a panic or a
// wrong delivery. So does a stripe whose bytes vanish under it — a
// mapped file truncated in place — since each stripe is copied and
// proven under GuardFault, which turns the memory fault into
// ErrBackingFault.

import (
	"fmt"
	"sync"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/routing"
)

// lazyStripe is the number of routers proven together on first touch.
// 256 rows amortize the payload fetch and the fault guard while
// keeping the worst-case wasted proof (touch one router, prove 256)
// far below the O(n) rows a heap load pays per router.
const lazyStripe = 256

// Lazy routes from a table payload resolved on demand. It implements
// routing.Scheme and routing.HeaderSizer and is safe for concurrent
// readers: stripe proofs are guarded by a per-stripe sync.Once, and
// proven state is read-only afterwards.
type Lazy struct {
	g       *graph.Graph
	n       int
	offs    []uint64               // absolute bit offsets; router x spans [offs[x], offs[x+1])
	payload func() ([]byte, error) // resolves the full scheme-section bytes (checksummed by the caller)
	hdr     []header               // shared Init pointers, as in Scheme

	stripes []stripeState

	blobOnce sync.Once
	blob     []byte
	blobErr  error
}

// stripeState holds one stripe's prove-once cell and, once proven, what
// the stripe serves from. Router x of the stripe [lo, hi) reads
// wid[x-lo] and either rle[x-lo] or its raw fields in code.
type stripeState struct {
	once sync.Once
	code []byte         // payload bytes [offs[lo]/8, ceil(offs[hi]/8)), then 8 zero bytes
	base uint64         // payload bit offset of code[0]
	wid  []uint8        // BitsFor(deg) per router, rleWidth for an RLE router
	rle  [][]graph.Port // the decoded row of each RLE router, nil for raw ones
	err  error
}

// NewLazy wraps a table payload for lazy routing on g. offs are the
// n+1 absolute bit offsets of the router spans inside the payload
// (container index section); payload resolves the scheme-section bytes
// on first use and may be called once from any goroutine.
func NewLazy(g *graph.Graph, offs []uint64, payload func() ([]byte, error)) (*Lazy, error) {
	g.Freeze()
	n := g.Order()
	if len(offs) != n+1 {
		return nil, fmt.Errorf("table: lazy index has %d offsets, graph order %d needs %d", len(offs), n, n+1)
	}
	for x := 0; x < n; x++ {
		if offs[x] > offs[x+1] {
			return nil, fmt.Errorf("table: lazy index offset %d decreases", x+1)
		}
	}
	l := &Lazy{
		g:       g,
		n:       n,
		offs:    offs,
		payload: payload,
		hdr:     make([]header, n),
		stripes: make([]stripeState, (n+lazyStripe-1)/lazyStripe),
	}
	for v := range l.hdr {
		l.hdr[v] = header(v)
	}
	return l, nil
}

// resolveBlob fetches the payload bytes once.
func (l *Lazy) resolveBlob() ([]byte, error) {
	l.blobOnce.Do(func() { l.blob, l.blobErr = l.payload() })
	return l.blob, l.blobErr
}

// proveStripe fills stripe si: it copies the stripe's code bytes out of
// the payload, then proves every row span in [lo, hi) canonical with
// decodeRowInto into scratch (n ports, reused row after row; nil
// allocates one) and checks it for exact consumption. Only the rows of
// RLE routers are kept; a raw router keeps just its field width.
func (l *Lazy) proveStripe(st *stripeState, si int, scratch []graph.Port) error {
	blob, err := l.resolveBlob()
	if err != nil {
		return err
	}
	lo := si * lazyStripe
	hi := min(lo+lazyStripe, l.n)
	for x := lo; x < hi; x++ {
		if l.offs[x+1] > uint64(len(blob))*8 {
			return fmt.Errorf("table: router %d span ends at bit %d, payload has %d", x, l.offs[x+1], len(blob)*8)
		}
	}
	first, last := l.offs[lo]/8, (l.offs[hi]+7)/8
	code := make([]byte, last-first+8)
	copy(code, blob[first:last])
	base := first * 8
	if scratch == nil {
		scratch = make([]graph.Port, l.n)
	}
	wid := make([]uint8, hi-lo)
	var rle [][]graph.Port
	for x := lo; x < hi; x++ {
		xi := graph.NodeID(x)
		deg := l.g.Degree(xi)
		row, err := proveSpan(code, int(l.offs[x]-base), int(l.offs[x+1]-base), scratch, xi, deg)
		if err != nil {
			return fmt.Errorf("table: router %d: %w", x, err)
		}
		wid[x-lo] = uint8(coding.BitsFor(uint64(deg)))
		if row != nil {
			if rle == nil {
				rle = make([][]graph.Port, hi-lo)
			}
			rle[x-lo], wid[x-lo] = row, rleWidth
		}
	}
	st.code, st.base, st.wid, st.rle = code, base, wid, rle
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

// stripe returns stripe si, proving it on first use with scratch (see
// proveStripe).
func (l *Lazy) stripe(si int, scratch []graph.Port) *stripeState {
	st := &l.stripes[si]
	st.once.Do(func() {
		st.err = GuardFault(func() error { return l.proveStripe(st, si, scratch) })
	})
	return st
}

// Preload proves every stripe (and hence verifies the whole payload)
// on a par.For pool of GOMAXPROCS workers, each with its own scratch
// row. A stripe's error is sticky, so the pool runs every stripe and
// Preload then returns the lowest-indexed stripe's error, which does
// not depend on the worker count. Tests and eager callers use it;
// serving never needs to.
func (l *Lazy) Preload() error {
	newScratch := func() []graph.Port { return make([]graph.Port, l.n) }
	_ = par.For(0, len(l.stripes), newScratch, func(scratch []graph.Port, si int) error {
		l.stripe(si, scratch)
		return nil // the stripe keeps its error; every stripe must be proved
	})
	for si := range l.stripes {
		if err := l.stripes[si].err; err != nil {
			return err
		}
	}
	return nil
}

// Name implements routing.Scheme, reporting the same name as the heap
// reader so evaluation reports compare equal.
func (l *Lazy) Name() string { return "routing-tables" }

// Init implements routing.Function.
func (l *Lazy) Init(src, dst graph.NodeID) routing.Header { return &l.hdr[dst] }

// Port implements routing.Function. A poisoned stripe answers NoPort,
// turning payload corruption into per-route errors. An RLE router
// answers from its decoded row, a raw one from its field in the
// stripe's code copy (rawPort).
func (l *Lazy) Port(x graph.NodeID, h routing.Header) graph.Port {
	dst := graph.NodeID(*h.(*header))
	if x == dst {
		return graph.NoPort
	}
	si := int(x) / lazyStripe
	st := l.stripe(si, nil)
	if st.err != nil {
		return graph.NoPort
	}
	i := int(x) - si*lazyStripe
	w := uint(st.wid[i])
	if w == rleWidth {
		return st.rle[i][dst]
	}
	return rawPort(st.code, l.offs[x]-st.base, w, x, dst)
}

// Next implements routing.Function.
func (l *Lazy) Next(x graph.NodeID, h routing.Header) routing.Header { return h }

// LocalBits implements routing.LocalCoder straight off the index: a
// table router's wire span is exactly its LocalBits code, so the
// memory report needs no decoding at all.
func (l *Lazy) LocalBits(x graph.NodeID) int { return int(l.offs[x+1] - l.offs[x]) }

// HeaderBits implements routing.HeaderSizer.
func (l *Lazy) HeaderBits(h routing.Header) int { return coding.BitsFor(uint64(l.n)) }

var (
	_ routing.Scheme      = (*Lazy)(nil)
	_ routing.HeaderSizer = (*Lazy)(nil)
)
