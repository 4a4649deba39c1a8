package schemeio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/xrand"
)

// writeV2 encodes one test scheme into a v2 container image.
func writeV2(t *testing.T, ts testScheme) []byte {
	t.Helper()
	var f bytes.Buffer
	if err := WriteFileV2(&f, ts.g, ts.s); err != nil {
		t.Fatal(err)
	}
	return f.Bytes()
}

// assertSameRoutes drives both schemes over every ordered pair and
// requires identical hop sequences — route-level bit-identity.
func assertSameRoutes(t *testing.T, g *graph.Graph, want, got routing.Scheme) {
	t.Helper()
	n := g.Order()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			a, err1 := routing.Route(g, want, graph.NodeID(u), graph.NodeID(v), 0)
			b, err2 := routing.Route(g, got, graph.NodeID(u), graph.NodeID(v), 0)
			if err1 != nil || err2 != nil {
				t.Fatalf("route %d->%d: %v / %v", u, v, err1, err2)
			}
			if len(a) != len(b) {
				t.Fatalf("route %d->%d: %d hops vs %d", u, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("route %d->%d diverges at hop %d", u, v, i)
				}
			}
		}
	}
}

// TestFileV2RoundTrip pins the heap path of the v2 container for every
// scheme kind: ReadFile returns an identically-routing scheme, and re-framing what was loaded
// reproduces the accepted file byte-for-byte (the container-level
// canonicality claim).
func TestFileV2RoundTrip(t *testing.T) {
	for _, ts := range testSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			data := writeV2(t, ts)
			g2, s2, err := ReadFile(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(graphSection(t, g2), graphSection(t, ts.g)) {
				t.Fatal("graph did not round-trip through the v2 container")
			}
			assertSameRoutes(t, ts.g, ts.s, s2)
			var re bytes.Buffer
			if err := WriteFileV2(&re, g2, s2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), data) {
				t.Fatal("accepted v2 file does not re-encode byte-identically")
			}
		})
	}
}

// TestMappedRoundTrip pins the lazy path: MapBytes verifies, routes
// identically to the source scheme, and meters identical LocalBits —
// for every kind, so both the striped table reader and the
// whole-payload wrapper are covered.
func TestMappedRoundTrip(t *testing.T) {
	for _, ts := range testSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			m, err := MapBytes(writeV2(t, ts))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if m.Kind() != ts.kind {
				t.Fatalf("kind %d, want %d", m.Kind(), ts.kind)
			}
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
			s := m.Scheme()
			if s.Name() != ts.s.Name() {
				t.Fatalf("mapped name %q, want %q", s.Name(), ts.s.Name())
			}
			for x := 0; x < ts.g.Order(); x++ {
				if got, want := s.LocalBits(graph.NodeID(x)), ts.s.LocalBits(graph.NodeID(x)); got != want {
					t.Fatalf("LocalBits(%d) = %d, want %d", x, got, want)
				}
			}
			assertSameRoutes(t, m.Graph(), ts.s, s)
		})
	}
}

// TestOpenMappedBackings pins OpenMapped against a real file, through
// both the mmap backing and the pread fallback, including Close.
func TestOpenMappedBackings(t *testing.T) {
	ts := testSchemes(t)[0]
	path := filepath.Join(t.TempDir(), "scheme.rsf2")
	if err := os.WriteFile(path, writeV2(t, ts), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tryMmap := range []bool{true, false} {
		m, err := openMappedFile(path, tryMmap)
		if err != nil {
			t.Fatalf("tryMmap=%v: %v", tryMmap, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("tryMmap=%v: %v", tryMmap, err)
		}
		assertSameRoutes(t, m.Graph(), ts.s, m.Scheme())
		if err := m.Close(); err != nil {
			t.Fatalf("tryMmap=%v: close: %v", tryMmap, err)
		}
	}
	// Files in the retired containers must be refused on their magic,
	// not misparsed.
	for name, image := range map[string][]byte{"v1": v1Image(t, ts), "rsf2": rsf2Image(t, ts)} {
		old := filepath.Join(t.TempDir(), "scheme."+name)
		if err := os.WriteFile(old, image, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(old); err == nil || !strings.Contains(err.Error(), "bad file magic") {
			t.Fatalf("%s via OpenMapped: got err %v", name, err)
		}
		if _, err := MapBytes(image); err == nil || !strings.Contains(err.Error(), "bad file magic") {
			t.Fatalf("%s via MapBytes: got err %v", name, err)
		}
	}
}

// graphSection is the GRAPH section WriteFileV2 writes for g.
func graphSection(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	b, err := buildGraphSection(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// textGraph renders g in the retired decimal text encoding of the GRAPH
// section: the order, then one line per vertex holding its degree and
// its neighbors in port order.
func textGraph(g *graph.Graph) []byte {
	b := fmt.Appendf(nil, "%d\n", g.Order())
	for u := 0; u < g.Order(); u++ {
		b = fmt.Appendf(b, "%d", g.Degree(graph.NodeID(u)))
		for _, v := range g.Arcs(graph.NodeID(u)) {
			b = fmt.Appendf(b, " %d", v)
		}
		b = append(b, '\n')
	}
	return b
}

// v1Image frames one test scheme in the retired v1 stream container
// ("RSF1", then uvarint-length-prefixed graph and scheme sections) —
// bytes every reader must now reject on the magic.
func v1Image(t *testing.T, ts testScheme) []byte {
	t.Helper()
	enc, err := Encode(ts.g, ts.s)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte("RSF1")
	for _, section := range [][]byte{textGraph(ts.g), enc.Bytes} {
		out = binary.AppendUvarint(out, uint64(len(section)))
		out = append(out, section...)
	}
	return out
}

// rsf2Image frames one test scheme in the retired "RSF2" container: the
// current directory and sections, but a decimal text GRAPH section —
// bytes every reader must now reject on the magic.
func rsf2Image(t *testing.T, ts testScheme) []byte {
	t.Helper()
	enc, err := Encode(ts.g, ts.s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := appendV2(textGraph(ts.g), enc.Bytes, buildIndexSection(enc))
	if err != nil {
		t.Fatal(err)
	}
	copy(out, "RSF2")
	refreshCRCs(out)
	return out
}

// refreshCRCs recomputes every checksum of a v2 image in place —
// section CRCs from the (unvalidated) directory offsets, then the
// directory CRC — so structural corruption tests reach the layout and
// index checks behind the checksums.
func refreshCRCs(data []byte) {
	for i := 0; i < 3; i++ {
		e := data[8+24*i:]
		off := binary.LittleEndian.Uint64(e[0:])
		length := binary.LittleEndian.Uint64(e[8:])
		if off+length <= uint64(len(data)) {
			binary.LittleEndian.PutUint32(e[20:], crc32.Checksum(data[off:off+length], castagnoli))
		}
	}
	binary.LittleEndian.PutUint32(data[80:], crc32.Checksum(data[:80], castagnoli))
}

// TestFileV2Rejects drives the structural error paths: truncation at
// every stride, every single-byte corruption (the checksums make the
// canonical image the unique accepted spelling), and post-checksum
// layout violations — misaligned sections, bad section count, index
// offsets out of bounds or merely non-canonical.
func TestFileV2Rejects(t *testing.T) {
	ts := testSchemes(t)[0]
	data := writeV2(t, ts)

	for cut := 0; cut < len(data); cut += 5 {
		if _, _, err := ReadFile(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated v2 file (%d bytes) accepted", cut)
		}
	}
	for i := range data {
		bad := append([]byte{}, data...)
		bad[i] ^= 0x41
		if _, _, err := ReadFile(bytes.NewReader(bad)); err == nil {
			t.Fatalf("single-byte corruption at %d accepted by ReadFile", i)
		}
		m, err := MapBytes(bad)
		if err != nil {
			continue
		}
		verr := m.Verify()
		m.Close()
		if verr == nil {
			t.Fatalf("single-byte corruption at %d accepted by the mapped reader", i)
		}
	}

	mutate := func(name, wantErr string, image []byte, fn func(b []byte)) {
		bad := append([]byte{}, image...)
		fn(bad)
		refreshCRCs(bad)
		if _, _, err := ReadFile(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: ReadFile err %v, want %q", name, err, wantErr)
		}
		if m, err := MapBytes(bad); err == nil {
			verr := m.Verify()
			m.Close()
			if verr == nil {
				t.Fatalf("%s: accepted by the mapped reader", name)
			}
		}
	}
	mutate("section count", "sections, want 3", data, func(b []byte) {
		binary.LittleEndian.PutUint32(b[4:], 4)
	})
	mutate("misaligned scheme section", "want aligned", data, func(b []byte) {
		e := b[8+24:]
		binary.LittleEndian.PutUint64(e[0:], binary.LittleEndian.Uint64(e[0:])+1)
	})
	mutate("graph section displaced", "graph section at", data, func(b []byte) {
		binary.LittleEndian.PutUint64(b[8:], v2DirSize+8)
	})
	mutate("file length mismatch", "sections end at", data, func(b []byte) {
		e := b[8+48:]
		binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])-8)
	})
	mutate("index offset past payload", "past payload end", data, func(b []byte) {
		e := b[8+48:]
		ioff := binary.LittleEndian.Uint64(e[0:])
		ilen := binary.LittleEndian.Uint64(e[8:])
		last := ioff + ilen - 8
		binary.LittleEndian.PutUint64(b[last:], binary.LittleEndian.Uint64(b[last:])+1<<40)
	})
	mutate("index offset decreasing", "decreases", data, func(b []byte) {
		ioff := binary.LittleEndian.Uint64(b[8+48:])
		binary.LittleEndian.PutUint64(b[ioff+16:], ^uint64(0)>>1)
	})
	// A monotone but wrong index must be rejected for every kind: the
	// full decode checks it against the canonical re-encoding, and the
	// table stripes fail their exact-consumption check.
	for _, ts := range testSchemes(t) {
		mutate(ts.name+": index offset skewed", "", writeV2(t, ts), func(b []byte) {
			ioff := binary.LittleEndian.Uint64(b[8+48:])
			second := b[ioff+24:]
			binary.LittleEndian.PutUint64(second, binary.LittleEndian.Uint64(second)+1)
		})
	}
}

// TestGraphSectionRoundTrip pins the GRAPH section on every test graph
// and on an adversarially relabeled one: decoding restores the exact
// port labeling into a frozen graph that owns its arena, and the
// decoded graph re-encodes to the same bytes.
func TestGraphSectionRoundTrip(t *testing.T) {
	r := xrand.New(5)
	perm := gen.RandomConnected(30, 0.3, xrand.New(42))
	for u := 0; u < perm.Order(); u++ {
		if d := perm.Degree(graph.NodeID(u)); d > 1 {
			perm.PermutePorts(graph.NodeID(u), r.Perm(d))
		}
	}
	graphs := []*graph.Graph{graph.New(0), graph.New(1), perm}
	for _, ts := range testSchemes(t) {
		graphs = append(graphs, ts.g)
	}
	for i, g := range graphs {
		b := graphSection(t, g)
		h, err := decodeGraphSection(b)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !h.Frozen() || h.Order() != g.Order() || h.Size() != g.Size() {
			t.Fatalf("graph %d: frozen=%v order %d size %d, want frozen order %d size %d", i, h.Frozen(), h.Order(), h.Size(), g.Order(), g.Size())
		}
		for u := 0; u < g.Order(); u++ {
			if !slices.Equal(h.Arcs(graph.NodeID(u)), g.Arcs(graph.NodeID(u))) ||
				!slices.Equal(h.BackPorts(graph.NodeID(u)), g.BackPorts(graph.NodeID(u))) {
				t.Fatalf("graph %d: port labeling changed at vertex %d", i, u)
			}
		}
		if !bytes.Equal(graphSection(t, h), b) {
			t.Fatalf("graph %d: decoded section does not re-encode byte for byte", i)
		}
		// The decoded graph owns its arrays: scribbling over the section
		// bytes afterwards must not reach it.
		for j := range b {
			b[j] = 0xff
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("graph %d aliases its section: %v", i, err)
		}
	}
}

// TestGraphSectionHeaderAllocation pins what a header alone can make
// the decoder allocate: only its error, because the section length is
// checked against the declared order before any per-vertex array
// exists. A header-only section is the cheapest hostile payload.
func TestGraphSectionHeaderAllocation(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint64(nil, 1<<16)
	var before, after runtime.MemStats
	best := ^uint64(0)
	for range 3 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := decodeGraphSection(hdr); err == nil {
			t.Fatal("header-only section accepted")
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > 1024 {
		t.Fatalf("header-only order-65536 section allocated %d bytes, want <= 1024", best)
	}
}

// graphSectionOf hand-assembles a GRAPH section from raw words, so the
// reject tests can spell sections no graph would produce.
func graphSectionOf(n uint64, deg, nbr, back []uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, n)
	for _, words := range [][]uint32{deg, nbr, back} {
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
	}
	return b
}

// TestGraphSectionRejects drives every decode error path and the
// encoder's refusal of fault holes.
func TestGraphSectionRejects(t *testing.T) {
	// The triangle 0-1-2 with ports in insertion order.
	deg := []uint32{2, 2, 2}
	nbr := []uint32{1, 2, 0, 2, 1, 0}
	back := []uint32{1, 2, 1, 1, 2, 2}
	valid := graphSectionOf(3, deg, nbr, back)
	if _, err := decodeGraphSection(valid); err != nil {
		t.Fatalf("valid triangle: %v", err)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "shorter than its order"},
		{"order over limit", graphSectionOf(graph.MaxSerializedOrder+1, nil, nil, nil), "exceeds limit"},
		{"truncated degrees", valid[:16], "cannot hold 3 degrees"},
		{"degree equals order", graphSectionOf(3, []uint32{3, 2, 2}, nbr, back), "impossible for order 3"},
		{"huge degree", graphSectionOf(3, []uint32{1 << 31, 2, 2}, nbr, back), "impossible for order 3"},
		{"truncated arcs", valid[:len(valid)-4], "want 68"},
		{"trailing bytes", append(append([]byte{}, valid...), 0, 0, 0, 0), "want 68"},
		{"odd arc count", graphSectionOf(3, []uint32{1, 0, 0}, []uint32{1}, []uint32{1}), "do not pair"},
		{"endpoint out of range", graphSectionOf(3, deg, []uint32{1, 7, 0, 2, 1, 0}, back), "points outside the graph"},
		{"endpoint wraps negative", graphSectionOf(3, deg, []uint32{1, 1 << 31, 0, 2, 1, 0}, back), "points outside the graph"},
		{"dead endpoint", graphSectionOf(3, deg, []uint32{1, ^uint32(0), 0, 2, 1, 0}, back), "dead port 2"},
		{"self-loop", graphSectionOf(3, deg, []uint32{0, 2, 0, 2, 1, 0}, back), "self-loop"},
		{"duplicate arc", graphSectionOf(3, deg, []uint32{1, 1, 0, 2, 1, 0}, back), "duplicate edge"},
		{"asymmetric back port", graphSectionOf(3, deg, nbr, []uint32{2, 2, 1, 1, 2, 2}), "not back"},
		{"back port out of range", graphSectionOf(3, deg, nbr, []uint32{1, 1 << 31, 1, 1, 2, 2}), "out of range"},
	} {
		if g, err := decodeGraphSection(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode = %v, %v; want error containing %q", tc.name, g, err, tc.want)
		}
	}

	faulted := gen.RandomConnected(12, 0.5, xrand.New(3))
	faulted.RemoveEdge(0, faulted.Arcs(0)[0])
	if _, err := buildGraphSection(faulted); err == nil || !strings.Contains(err.Error(), "dead port") {
		t.Fatalf("faulted graph: got err %v, want dead port refusal", err)
	}
	killed := gen.RandomConnected(12, 0.5, xrand.New(3))
	killed.RemoveVertex(4)
	if _, err := buildGraphSection(killed); err == nil || !strings.Contains(err.Error(), "removed vertices") {
		t.Fatalf("graph with a removed vertex: got err %v", err)
	}
}
