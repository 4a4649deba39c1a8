package schemeio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
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
			var a, b bytes.Buffer
			if err := ts.g.WritePorted(&a); err != nil {
				t.Fatal(err)
			}
			if err := g2.WritePorted(&b); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
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
	// A file in the retired v1 stream container must be refused on its
	// magic, not misparsed.
	v1 := filepath.Join(t.TempDir(), "scheme.rsf1")
	if err := os.WriteFile(v1, v1Image(t, ts), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(v1); err == nil || !strings.Contains(err.Error(), "bad file magic") {
		t.Fatalf("v1 via OpenMapped: got err %v", err)
	}
}

// v1Image frames one test scheme in the retired v1 stream container
// ("RSF1", then uvarint-length-prefixed graph and scheme sections) —
// bytes every reader must now reject on the magic.
func v1Image(t *testing.T, ts testScheme) []byte {
	t.Helper()
	var gb bytes.Buffer
	if err := ts.g.WritePorted(&gb); err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(ts.g, ts.s)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte("RSF1")
	for _, section := range [][]byte{gb.Bytes(), enc.Bytes} {
		out = binary.AppendUvarint(out, uint64(len(section)))
		out = append(out, section...)
	}
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
