package schemeio

// Mapped is the zero-copy v2 container reader and the package's only
// container parser: ReadFile runs the same parse over a heap copy and
// then decodes everything before returning, while OpenMapped does
// O(index) work up front — directory, checksummed graph and index
// sections, and the scheme wire header — and defers the scheme payload
// entirely: the section's checksum is verified and its routers decoded
// only when the first query touches them. Against an mmap backing the
// payload bytes stay in the mapping (page cache) until then: a table
// stripe is copied to the heap and proven there on first touch, other
// kinds decode straight out of the mapping, which is what turns scheme
// load from O(scheme) into O(index).

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/table"
)

// ErrBackingFault is the error a mapped reader reports when container
// bytes it needs after open are gone: a mapped page past the end of a
// file truncated in place (a memory fault, recovered), or a short pread.
// Routes through the affected stripe or scheme fail per route; Verify
// returns an error matching it under errors.Is.
var ErrBackingFault = table.ErrBackingFault

// backing abstracts where container bytes live: an mmap'd region, an
// opened file read via pread, or an in-memory slice (ReadFile, tests,
// fuzzers).
type backing interface {
	// view returns length bytes at off. Implementations may return a
	// subslice of a shared region; callers must treat it as read-only.
	view(off, length int64) ([]byte, error)
	close() error
}

// byteBacking serves views straight out of one in-memory (or mapped)
// region — zero-copy.
type byteBacking struct {
	data    []byte
	unmap   func() error // nil for plain byte slices
	unmapMu sync.Mutex
}

func (b *byteBacking) view(off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > int64(len(b.data)) {
		return nil, fmt.Errorf("schemeio: view [%d,%d) outside %d-byte container", off, off+length, len(b.data))
	}
	return b.data[off : off+length], nil
}

func (b *byteBacking) close() error {
	b.unmapMu.Lock()
	defer b.unmapMu.Unlock()
	if b.unmap == nil {
		return nil
	}
	u := b.unmap
	b.unmap = nil
	return u()
}

// fileBacking serves views by pread — the fallback for platforms or
// filesystems where mapping is unavailable. Each view is a fresh copy,
// so closing the backing never invalidates issued views.
type fileBacking struct {
	f    *os.File
	size int64
}

func (b *fileBacking) view(off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > b.size {
		return nil, fmt.Errorf("schemeio: view [%d,%d) outside %d-byte container", off, off+length, b.size)
	}
	buf := make([]byte, length)
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("schemeio: %w: read [%d,%d): %v", ErrBackingFault, off, off+length, err)
	}
	return buf, nil
}

func (b *fileBacking) close() error { return b.f.Close() }

// Mapped is an opened v2 container: graph decoded, index parsed and
// verified, scheme payload left lazy. Scheme() routes identically to
// the heap reader's scheme; corruption inside the payload surfaces as
// per-route errors after Open, or eagerly via Verify.
//
// Close releases the backing. With an mmap backing the payload memory
// is unmapped, so the Mapped and its scheme must not be used after
// Close.
type Mapped struct {
	b backing
	g *graph.Graph
	s routing.Scheme

	kind        uint64
	schemeOff   int64
	schemeLen   int64
	schemeCRC   uint32
	payloadBits int
	offs        []uint64

	payloadOnce sync.Once
	payload     []byte
	payloadErr  error
}

// OpenMapped opens path as a v2 container, mapping it when the
// platform allows and falling back to pread otherwise.
func OpenMapped(path string) (*Mapped, error) {
	return openMappedFile(path, true)
}

// openMappedFile is OpenMapped with the mapping optional: tryMmap=false
// forces the pread backing, which is how tests cover both backings on
// one platform.
func openMappedFile(path string, tryMmap bool) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size > maxV2FileSize {
		f.Close()
		return nil, fmt.Errorf("schemeio: container of %d bytes exceeds %d", size, maxV2FileSize)
	}
	var b backing
	if tryMmap {
		if data, unmap, merr := mmapFile(f, size); merr == nil {
			f.Close() // the mapping outlives the descriptor
			b = &byteBacking{data: data, unmap: unmap}
		}
	}
	if b == nil {
		b = &fileBacking{f: f, size: size}
	}
	m, err := openMapped(b, size)
	if err != nil {
		b.close()
		return nil, err
	}
	return m, nil
}

// MapBytes opens an in-memory v2 container image — the backing the
// fuzzer and the conformance tests drive, exercising the exact code
// path of OpenMapped without a filesystem.
func MapBytes(data []byte) (*Mapped, error) {
	return openMapped(&byteBacking{data: data}, int64(len(data)))
}

// openMapped parses the container and attaches the lazily-decoding
// scheme view: a table.Scheme whose stripes are proven on first touch
// (table.NewLazy) for tables, lazyWhole for every other kind.
func openMapped(b backing, size int64) (*Mapped, error) {
	m, err := parseContainer(b, size)
	if err != nil {
		return nil, err
	}
	if m.kind == KindTable {
		m.s = table.NewLazy(m.g, m.offs, m.payloadBytes)
	} else {
		// Schemes with shared sections (landmark epilogues, label
		// permutations) cannot be row-sliced; they stay whole-payload
		// lazy: nothing decoded until first touch, then decodeScheme.
		m.s = &lazyWhole{m: m}
	}
	return m, nil
}

// parseContainer is the one container parser, shared by ReadFile and
// every mapped open. It does the eager part: directory, alignment
// padding, graph + index sections (checksummed), scheme wire header
// sanity. The scheme section itself is left to payloadBytes, and the
// returned Mapped carries no scheme view yet.
func parseContainer(b backing, size int64) (*Mapped, error) {
	hdr, err := b.view(0, min(size, v2DirSize))
	if err != nil {
		return nil, fmt.Errorf("schemeio: v2 directory: %w", err)
	}
	l, err := parseV2Directory(hdr, size)
	if err != nil {
		return nil, err
	}
	for _, gap := range [][2]int64{
		{l.graphOff + l.graphLen, l.schemeOff},
		{l.schemeOff + l.schemeLen, l.indexOff},
	} {
		pad, err := b.view(gap[0], gap[1]-gap[0])
		if err != nil {
			return nil, err
		}
		for _, c := range pad {
			if c != 0 {
				return nil, fmt.Errorf("schemeio: nonzero alignment padding before section")
			}
		}
	}
	section := func(off, length int64, crc uint32, what string) ([]byte, error) {
		sb, err := b.view(off, length)
		if err != nil {
			return nil, err
		}
		if got := crc32.Checksum(sb, castagnoli); got != crc {
			return nil, fmt.Errorf("schemeio: %s section checksum %#x, computed %#x", what, crc, got)
		}
		return sb, nil
	}
	gb, err := section(l.graphOff, l.graphLen, l.graphCRC, "graph")
	if err != nil {
		return nil, err
	}
	g, err := decodeGraphSection(gb)
	if err != nil {
		return nil, err
	}
	ib, err := section(l.indexOff, l.indexLen, l.indexCRC, "index")
	if err != nil {
		return nil, err
	}
	offs, payloadBits, err := parseIndexSection(ib, l.schemeLen)
	if err != nil {
		return nil, err
	}
	if len(offs) != g.Order()+1 {
		return nil, fmt.Errorf("schemeio: index is for %d routers, graph has order %d", len(offs)-1, g.Order())
	}
	// Scheme wire header: read just enough bytes to know kind and order
	// before committing to anything payload-sized.
	shb, err := b.view(l.schemeOff, min(l.schemeLen, 32))
	if err != nil {
		return nil, err
	}
	hr := coding.NewBitReader(shb, len(shb)*8)
	wh, err := hr.ReadWireHeader()
	if err != nil {
		return nil, err
	}
	if wh.Order != g.Order() {
		return nil, fmt.Errorf("schemeio: blob is for order %d, graph has order %d", wh.Order, g.Order())
	}
	m := &Mapped{
		b: b, g: g, kind: wh.Kind,
		schemeOff: l.schemeOff, schemeLen: l.schemeLen, schemeCRC: l.schemeCRC,
		payloadBits: payloadBits, offs: offs,
	}
	switch wh.Kind {
	case KindTable:
		// A table payload is wire header + row spans and nothing else, so
		// the index must account for every bit — checked here, while the
		// header bit position is in hand.
		if offs[0] != uint64(hr.Pos()) || offs[len(offs)-1] != uint64(payloadBits) {
			return nil, fmt.Errorf("schemeio: table index spans [%d,%d) bits, payload is header %d + %d total",
				offs[0], offs[len(offs)-1], hr.Pos(), payloadBits)
		}
	case KindInterval, KindTree, KindLandmark, KindKnFriendly, KindKnAdversarial, KindECube:
		// Whole-payload kinds: decodeScheme checks their index against
		// the canonical re-encoding.
	default:
		return nil, fmt.Errorf("schemeio: unknown scheme kind %d", wh.Kind)
	}
	return m, nil
}

// payloadBytes resolves (once) the scheme section: fetch the view and
// verify its checksum and padding bits, under GuardFault since the
// checksum reads every mapped byte. This is the deferred cost an open
// skips.
func (m *Mapped) payloadBytes() ([]byte, error) {
	m.payloadOnce.Do(func() {
		m.payloadErr = table.GuardFault(func() error {
			sb, err := m.b.view(m.schemeOff, m.schemeLen)
			if err != nil {
				return err
			}
			if got := crc32.Checksum(sb, castagnoli); got != m.schemeCRC {
				return fmt.Errorf("schemeio: scheme section checksum %#x, computed %#x", m.schemeCRC, got)
			}
			// Sub-byte tail must be zero padding, as in Decode: without
			// this a mapped table file could alias a heap-rejected one.
			r := coding.NewBitReaderAt(sb, m.payloadBits, len(sb)*8)
			for r.Remaining() > 0 {
				bit, err := r.ReadBit()
				if err != nil {
					return err
				}
				if bit != 0 {
					return fmt.Errorf("schemeio: nonzero padding bit after payload")
				}
			}
			m.payload = sb
			return nil
		})
	})
	return m.payload, m.payloadErr
}

// decodeScheme fully decodes the scheme section (Decode's canonicality
// gate included) and checks the persisted index against the gate's
// re-encoding, so an accepted container is the one canonical v2 image
// of its (graph, scheme) pair. ReadFile and lazyWhole both end here.
func (m *Mapped) decodeScheme() (routing.Scheme, error) {
	blob, err := m.payloadBytes()
	if err != nil {
		return nil, err
	}
	s, re, err := decode(blob, m.g)
	if err != nil {
		return nil, err
	}
	if re.PayloadBits != m.payloadBits {
		return nil, fmt.Errorf("schemeio: index declares %d payload bits, scheme encodes to %d", m.payloadBits, re.PayloadBits)
	}
	for i, off := range re.RouterOffs {
		if uint64(off) != m.offs[i] {
			return nil, fmt.Errorf("schemeio: index offset %d is %d, scheme encodes router span at %d", i, m.offs[i], off)
		}
	}
	return s, nil
}

// Graph returns the decoded graph (always materialized at open).
func (m *Mapped) Graph() *graph.Graph { return m.g }

// Scheme returns the lazily-decoding scheme view. It is read-only and
// safe for concurrent routing, like every decoded scheme.
func (m *Mapped) Scheme() routing.Scheme { return m.s }

// Kind returns the scheme kind from the wire header.
func (m *Mapped) Kind() uint64 { return m.kind }

// Verify forces full payload validation now — everything a heap
// ReadFile would have checked — instead of on first touch: for tables
// it is (*table.Scheme).Preload. The conformance and fuzz suites call
// it to make lazy errors observable.
func (m *Mapped) Verify() error {
	if ts, ok := m.s.(*table.Scheme); ok {
		return ts.Preload()
	}
	_, err := m.s.(*lazyWhole).resolve()
	return err
}

// Close releases the backing. See the type comment for the aliasing
// caveat with mmap backings.
func (m *Mapped) Close() error { return m.b.close() }

// lazyWhole defers a non-table scheme until first touch: one
// decodeScheme (canonicality gate and index check included) guarded by
// a sync.Once and run under GuardFault. A failed decode, a faulting
// mapped page included, poisons the scheme — every port answer is
// NoPort, surfacing as per-route errors, never a panic.
type lazyWhole struct {
	m    *Mapped
	once sync.Once
	s    routing.Scheme
	err  error
}

func (l *lazyWhole) resolve() (routing.Scheme, error) {
	l.once.Do(func() {
		l.err = table.GuardFault(func() (err error) {
			l.s, err = l.m.decodeScheme()
			return err
		})
	})
	return l.s, l.err
}

func (l *lazyWhole) Name() string {
	if s, err := l.resolve(); err == nil {
		return s.Name()
	}
	return KindName(l.m.kind)
}

func (l *lazyWhole) Init(src, dst graph.NodeID) routing.Header {
	s, err := l.resolve()
	if err != nil {
		return nil
	}
	return s.Init(src, dst)
}

func (l *lazyWhole) Port(x graph.NodeID, h routing.Header) graph.Port {
	s, err := l.resolve()
	if err != nil || h == nil {
		return graph.NoPort
	}
	return s.Port(x, h)
}

func (l *lazyWhole) Next(x graph.NodeID, h routing.Header) routing.Header {
	s, err := l.resolve()
	if err != nil || h == nil {
		return h
	}
	return s.Next(x, h)
}

func (l *lazyWhole) LocalBits(x graph.NodeID) int {
	s, err := l.resolve()
	if err != nil {
		return 0
	}
	return s.LocalBits(x)
}

func (l *lazyWhole) HeaderBits(h routing.Header) int {
	s, err := l.resolve()
	if err != nil {
		return 0
	}
	if hs, ok := s.(routing.HeaderSizer); ok {
		return hs.HeaderBits(h)
	}
	return 0
}

var (
	_ routing.Scheme      = (*lazyWhole)(nil)
	_ routing.HeaderSizer = (*lazyWhole)(nil)
)
