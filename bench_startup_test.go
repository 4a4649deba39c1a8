// Cold-start benchmarks for the scheme container: how long from a
// persisted file to a servable (graph, scheme) pair, and what it costs
// in heap. Two readers are swept at two scheme sizes:
//
//   - v2-full: schemeio.ReadFile — the container parse over a heap copy,
//     then every router payload decoded up front;
//   - v2-mapped: the same container through schemeio.OpenMapped —
//     O(index) validation now, router payloads decoded lazily on first
//     touch, so cold-start cost is independent of scheme size.
//
// BenchmarkMappedVerify adds the cost a reloaded generation pays before
// it goes live: the mapped open plus Verify, which proves every stripe.
//
// CI archives these as BENCH_startup.json (see DESIGN.md "Bench
// trajectory"); EXPERIMENTS.md E22 reads the v2-full vs v2-mapped ratio
// off that document. The acceptance floor is mapped open >= 5x faster
// than full decode at the largest benchmarked scheme (medians of five
// 100-iteration runs):
//
//	go test -run '^$' -bench '^(BenchmarkLoadContainer|BenchmarkMappedVerify)$' -benchtime 100x -count 5 \
//	    -timeout 30m . | go run ./cmd/benchjson > BENCH_startup.json
package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
)

// benchContainerFile persists one tables scheme under dir, returning
// the path. Tables are the dense regime — Θ(n log n) row bits — where
// eager versus lazy decode separates most.
func benchContainerFile(b *testing.B, dir string, n int) string {
	b.Helper()
	g := benchGraph(n)
	apsp := shortest.NewAPSPParallel(g, 0)
	s, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	path := fmt.Sprintf("%s/n%d.rsf2", dir, n)
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := schemeio.WriteFileV2(f, g, s); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

func BenchmarkLoadContainer(b *testing.B) {
	dir := b.TempDir()
	for _, n := range []int{512, 2048} {
		v2Path := benchContainerFile(b, dir, n)
		b.Run(fmt.Sprintf("v2-full/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := os.Open(v2Path)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := schemeio.ReadFile(f); err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
			reportFileBytes(b, v2Path)
		})
		b.Run(fmt.Sprintf("v2-mapped/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := schemeio.OpenMapped(v2Path)
				if err != nil {
					b.Fatal(err)
				}
				// The open IS the measured cold start: directory, graph
				// and index validated, scheme payload untouched. The
				// scheme must still be in hand before Close.
				if m.Scheme() == nil {
					b.Fatal("no scheme")
				}
				m.Close()
			}
			reportFileBytes(b, v2Path)
		})
	}
}

// BenchmarkMappedVerify times OpenMapped + Verify on random-family
// tables: the reload a serving generation pays before its swap, where
// every row span is checked for exact consumption and proven
// canonical, a raw row on its packed fields a 64-bit word at a time
// (coding.(*BitReader).ScanFixed) without being unpacked, an RLE row
// while it is decoded.
func BenchmarkMappedVerify(b *testing.B) {
	dir := b.TempDir()
	for _, n := range []int{2048, 4096} {
		path := benchContainerFile(b, dir, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := schemeio.OpenMapped(path)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Verify(); err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
		})
	}
}

func reportFileBytes(b *testing.B, path string) {
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "filebytes")
}
