package table

// Lazy is the mapped-container view of a routing-table scheme: instead
// of materializing every router's row at load time (O(n^2) ports, the
// dominant cost of opening a big table file), it keeps only the
// per-router bit-offset index from the container and decodes rows on
// first touch, a stripe of routers at a time, into one contiguous
// arena per stripe. A shard that is only ever asked about a slice of
// the source space therefore pays decode cost proportional to the
// routers it actually routes through, and the payload bytes themselves
// stay wherever the container backing put them (typically a read-only
// mmap of page cache).
//
// Correctness discipline matches the heap reader: each row span is
// decoded with a reader confined to exactly [offs[x], offs[x+1]) bits,
// must consume the span exactly, and must be the one code the canonical
// row coder emits for its row — proven by decodeRowInto in the decoding
// pass, the per-span restatement of Decode's "decodes successfully ==
// re-encodes byte-identically" gate without the re-encode. A stripe
// that fails any check is poisoned, not fatal: its routers answer
// NoPort, so a corrupt span surfaces as a per-route RouteError from the
// simulator ("delivered at wrong node"), never as a panic or a wrong
// delivery. So does a stripe whose bytes vanish under it — a mapped
// file truncated in place — since each stripe decodes under
// GuardFault, which turns the memory fault into ErrBackingFault.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/routing"
)

// lazyStripe is the number of routers decoded together on first touch.
// 256 rows amortize the payload fetch and the fault guard while
// keeping the worst-case wasted decode (touch one router, decode 256)
// far below the O(n) rows a heap load pays per router.
const lazyStripe = 256

// Lazy routes from a table payload resolved on demand. It implements
// routing.Scheme and routing.HeaderSizer and is safe for concurrent
// readers: stripe decoding is guarded by a per-stripe sync.Once, and
// decoded state is read-only afterwards.
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

// stripeState holds one stripe's decode-once cell. rows is the arena:
// (hi-lo)*n ports, row x at [(x-lo)*n, (x-lo+1)*n).
type stripeState struct {
	once sync.Once
	rows []graph.Port
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

// decodeStripe materializes stripe si: every row in [lo, hi) decoded
// from its indexed span into one arena, each span proven canonical by
// decodeRowInto and checked for exact consumption.
func (l *Lazy) decodeStripe(si int) ([]graph.Port, error) {
	blob, err := l.resolveBlob()
	if err != nil {
		return nil, err
	}
	lo := si * lazyStripe
	hi := lo + lazyStripe
	if hi > l.n {
		hi = l.n
	}
	arena := make([]graph.Port, (hi-lo)*l.n)
	for x := lo; x < hi; x++ {
		off, end := l.offs[x], l.offs[x+1]
		if end > uint64(len(blob))*8 {
			return nil, fmt.Errorf("table: router %d span ends at bit %d, payload has %d", x, end, len(blob)*8)
		}
		row := arena[(x-lo)*l.n : (x-lo+1)*l.n]
		r := coding.NewBitReaderAt(blob, int(off), int(end))
		if err := decodeRowInto(r, row, graph.NodeID(x), l.g.Degree(graph.NodeID(x))); err != nil {
			return nil, fmt.Errorf("table: router %d: %w", x, err)
		}
		if r.Pos() != int(end) {
			return nil, fmt.Errorf("table: router %d code is %d bits, index says %d", x, r.Pos()-int(off), end-off)
		}
	}
	return arena, nil
}

// stripe returns stripe si's arena, decoding it on first use.
func (l *Lazy) stripe(si int) *stripeState {
	st := &l.stripes[si]
	st.once.Do(func() {
		st.err = GuardFault(func() (err error) {
			st.rows, err = l.decodeStripe(si)
			return err
		})
	})
	return st
}

// row returns router x's decoded row, or nil when its stripe is
// poisoned by a decode error.
func (l *Lazy) row(x graph.NodeID) []graph.Port {
	si := int(x) / lazyStripe
	st := l.stripe(si)
	if st.err != nil {
		return nil
	}
	lo := si * lazyStripe
	return st.rows[(int(x)-lo)*l.n : (int(x)-lo+1)*l.n]
}

// Preload decodes every stripe (and hence verifies the whole payload)
// on min(GOMAXPROCS, stripes) workers that claim stripes from a shared
// counter. It returns the lowest-indexed stripe's error once every
// stripe is done, so the report does not depend on the worker count.
// Tests and eager callers use it; serving never needs to.
func (l *Lazy) Preload() error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(l.stripes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := int(next.Add(1)) - 1; si < len(l.stripes); si = int(next.Add(1)) - 1 {
				l.stripe(si)
			}
		}()
	}
	wg.Wait()
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
// turning payload corruption into per-route errors.
func (l *Lazy) Port(x graph.NodeID, h routing.Header) graph.Port {
	dst := graph.NodeID(*h.(*header))
	if x == dst {
		return graph.NoPort
	}
	row := l.row(x)
	if row == nil {
		return graph.NoPort
	}
	return row[dst]
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
