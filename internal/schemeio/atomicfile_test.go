package schemeio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// seededTables builds a table scheme on a seeded random graph of order n.
func seededTables(t *testing.T, n int, seed uint64) (*graph.Graph, routing.Scheme) {
	t.Helper()
	g := gen.RandomConnected(n, 6.0/float64(n), xrand.New(seed))
	s, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

func saveAtomic(t *testing.T, path string, g *graph.Graph, s routing.Scheme) {
	t.Helper()
	if err := WriteFileAtomic(path, func(w io.Writer) error { return WriteFileV2(w, g, s) }); err != nil {
		t.Fatal(err)
	}
}

// assertSampledRoutes routes two pairs out of every router of g through
// both schemes and requires identical hop sequences; every router's
// own row, and so every lazily decoded stripe, is read.
func assertSampledRoutes(t *testing.T, g *graph.Graph, want, got routing.Scheme, gotG *graph.Graph) {
	t.Helper()
	n := g.Order()
	for u := 0; u < n; u++ {
		for _, v := range []int{(7*u + 1) % n, (13*u + 5) % n} {
			if u == v {
				continue
			}
			a, err1 := routing.Route(g, want, graph.NodeID(u), graph.NodeID(v), 0)
			b, err2 := routing.Route(gotG, got, graph.NodeID(u), graph.NodeID(v), 0)
			if err1 != nil || err2 != nil || !slices.Equal(a, b) {
				t.Fatalf("route %d->%d differs: %v / %v", u, v, err1, err2)
			}
		}
	}
}

// TestReplaceWhileMapped pins the safe-replacement contract: re-saving
// a path a live Mapped still reads leaves the old mapping answering
// exactly as before, on stripes it had not touched yet too, while a
// fresh open sees the new file.
func TestReplaceWhileMapped(t *testing.T) {
	const n = 600 // three lazily decoded table stripes
	g1, s1 := seededTables(t, n, 1)
	g2, s2 := seededTables(t, n+40, 2)
	for _, tryMmap := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "scheme.rsf")
		saveAtomic(t, path, g1, s1)
		m, err := openMappedFile(path, tryMmap)
		if err != nil {
			t.Fatal(err)
		}
		// Touch the first stripe only, then replace the file.
		if _, err := routing.RouteLen(m.Graph(), m.Scheme(), 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		saveAtomic(t, path, g2, s2)
		assertSampledRoutes(t, g1, s1, m.Scheme(), m.Graph())
		if err := m.Verify(); err != nil {
			t.Fatalf("old mapping after replacement: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		fresh, err := openMappedFile(path, tryMmap)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Graph().Order() != g2.Order() {
			t.Fatalf("fresh open sees order %d, want %d", fresh.Graph().Order(), g2.Order())
		}
		assertSampledRoutes(t, g2, s2, fresh.Scheme(), fresh.Graph())
		fresh.Close()
	}
}

// TestTruncateWhileMapped pins what happens when a container is
// truncated in place under a live Mapped, the replacement
// WriteFileAtomic cannot prevent: routes through bytes that are gone
// fail with a typed per-route error, Verify reports ErrBackingFault,
// and the process survives. Without the fault guard the mmap arms die
// of SIGBUS. The mmap table arm routes before truncating, so its first
// stripe is decoded and the fault hits a later stripe; the other arms
// truncate before the payload is first read (a pread backing copies
// the payload on that read, and a non-table scheme decodes whole).
func TestTruncateWhileMapped(t *testing.T) {
	const n = 600 // three lazily decoded table stripes
	gt, st := seededTables(t, n, 1)
	gl := gen.RandomConnected(n, 6.0/float64(n), xrand.New(4))
	sl, err := landmark.NewStreamed(gl, landmark.Options{Seed: 17}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		g              *graph.Graph
		s              routing.Scheme
		tryMmap, touch bool
	}{
		{"tables/mmap", gt, st, true, true},
		{"tables/pread", gt, st, false, false},
		{"landmark/mmap", gl, sl, true, false},
		{"landmark/pread", gl, sl, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "scheme.rsf")
			saveAtomic(t, path, tc.g, tc.s)
			m, err := openMappedFile(path, tc.tryMmap)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if _, mapped := m.b.(*byteBacking); mapped != tc.tryMmap {
				t.Skipf("backing is %T", m.b)
			}
			if tc.touch {
				if _, err := routing.RouteLen(m.Graph(), m.Scheme(), 0, 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Truncate(path, 4096); err != nil {
				t.Fatal(err)
			}
			_, err = routing.RouteLen(m.Graph(), m.Scheme(), n-1, n-2, 0)
			var re *routing.RouteError
			if !errors.As(err, &re) {
				t.Fatalf("route %d->%d after truncation = %v, want a *routing.RouteError", n-1, n-2, err)
			}
			if err := m.Verify(); !errors.Is(err, ErrBackingFault) {
				t.Fatalf("Verify after truncation = %v, want ErrBackingFault", err)
			}
		})
	}
}

// TestWriteFileAtomicFailure pins the error path: a failing write leaves
// the target untouched and no temporary file behind.
func TestWriteFileAtomicFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.rsd")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic = %v, want %v", err, boom)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Fatalf("target now holds %q, want it untouched", b)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want 1", len(ents))
	}
}
