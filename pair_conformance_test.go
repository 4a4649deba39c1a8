// Pair-distance conformance suite: the property that lets the serving
// tier answer a stretch query with one shortest.PairReader.Dist call
// instead of a full distance row is
//
//	rd.Dist(u, v) == NewAPSPParallel(g, 0).Row(u)[v]  for every u, v
//
// for every reader that implements PairReader — the scalar streaming
// reader (bidirectional BFS) and the dense table. The suite checks it
// over all ordered pairs of every gen.ByName family at small n, on
// seeded samples at n = 4096, on graphs with removed edges and
// vertices (dead ports, disconnected parts, removed endpoints), for
// u == v, and with Row and Dist calls interleaved on one reader, which
// pins that Dist never overwrites a row an earlier Row returned.
// FuzzPairDist in internal/shortest covers arbitrary small graphs.
package repro

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// pairReaders returns the PairReader-capable readers over g, by name.
func pairReaders(t *testing.T, g *graph.Graph, apsp *shortest.APSP) map[string]shortest.PairReader {
	t.Helper()
	out := map[string]shortest.PairReader{"dense": apsp}
	rd, ok := shortest.NewStreamSource(g).NewReader().(shortest.PairReader)
	if !ok {
		t.Fatal("scalar StreamSource reader does not implement PairReader")
	}
	out["stream"] = rd
	return out
}

// checkAllPairs compares Dist with the dense table over every ordered
// pair, u == v included, on one reader per backend.
func checkAllPairs(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	apsp := shortest.NewAPSPParallel(g, 0)
	n := g.Order()
	for rname, rd := range pairReaders(t, g, apsp) {
		for u := 0; u < n; u++ {
			want := apsp.Row(graph.NodeID(u))
			for v := 0; v < n; v++ {
				if got := rd.Dist(graph.NodeID(u), graph.NodeID(v)); got != want[v] {
					t.Fatalf("%s/%s: Dist(%d,%d) = %d, want %d", name, rname, u, v, got, want[v])
				}
			}
		}
	}
}

// faulted returns a clone of g with k seeded edges and one vertex
// removed. On trees and sparse families every edge removal splits a
// component, so the clone has dead ports, disconnected parts and a
// removed endpoint at once.
func faulted(g *graph.Graph, k int, seed uint64) *graph.Graph {
	h := g.Clone()
	r := xrand.New(seed)
	edges := h.Edges()
	for i := 0; i < k && len(edges) > 0; i++ {
		j := r.Intn(len(edges))
		h.RemoveEdge(edges[j][0], edges[j][1])
		edges = slices.Delete(edges, j, j+1)
	}
	h.RemoveVertex(graph.NodeID(r.Intn(h.Order())))
	return h
}

func TestPairDistAllPairsByFamily(t *testing.T) {
	for _, fam := range gen.FamilyNames {
		g, err := gen.ByName(fam, 64, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		checkAllPairs(t, fam, g)
		checkAllPairs(t, fam+"/faulted", faulted(g, 6, 12))
	}
}

func TestPairDistDisconnected(t *testing.T) {
	g := graph.New(131) // two paths of 65 and an isolated vertex
	for v := 0; v < 64; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
		g.AddEdge(graph.NodeID(65+v), graph.NodeID(65+v+1))
	}
	checkAllPairs(t, "two paths + isolated", g)
	checkAllPairs(t, "single vertex", graph.New(1))
}

// TestPairDistSampled4096 checks seeded pair samples at the serving
// benchmark's order. The reference row is BFSInto(g, u), which every
// dense table row equals, so no n² table is held.
func TestPairDistSampled4096(t *testing.T) {
	const n, sources, targets = 4096, 24, 96
	for _, fam := range gen.FamilyNames {
		size := n
		if fam == "complete" {
			size = 512 // K_4096 alone has 8.4M edges
		}
		g, err := gen.ByName(fam, size, xrand.New(21))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []struct {
			name string
			g    *graph.Graph
		}{{fam, g}, {fam + "/faulted", faulted(g, 64, 22)}} {
			rd := shortest.NewStreamSource(h.g).NewReader().(shortest.PairReader)
			r := xrand.New(23)
			m := h.g.Order()
			for i := 0; i < sources; i++ {
				u := graph.NodeID(r.Intn(m))
				want := shortest.BFS(h.g, u)
				for j := 0; j < targets; j++ {
					v := graph.NodeID(r.Intn(m))
					if got := rd.Dist(u, v); got != want[v] {
						t.Fatalf("%s n=%d: Dist(%d,%d) = %d, want %d", h.name, m, u, v, got, want[v])
					}
				}
			}
		}
	}
}

// TestPairDistInterleavedWithRow pins the reader-level contract: Dist
// answers equal the table whether or not they hit the resident row, and
// no Dist call changes a row slice an earlier Row returned.
func TestPairDistInterleavedWithRow(t *testing.T) {
	g := faulted(gen.RandomConnected(200, 0.03, xrand.New(31)), 10, 32)
	apsp := shortest.NewAPSPParallel(g, 0)
	rd := shortest.NewStreamSource(g).NewReader()
	pr := rd.(shortest.PairReader)
	r := xrand.New(33)
	n := g.Order()
	for step := 0; step < 300; step++ {
		src := graph.NodeID(r.Intn(n))
		row := rd.Row(src)
		held := slices.Clone(row)
		if !slices.Equal(row, apsp.Row(src)) {
			t.Fatalf("step %d: Row(%d) differs from the table", step, src)
		}
		for k := 0; k < 8; k++ {
			u := graph.NodeID(r.Intn(n))
			if k%2 == 0 {
				u = src // the resident-row path
			}
			v := graph.NodeID(r.Intn(n))
			if got, want := pr.Dist(u, v), apsp.Dist(u, v); got != want {
				t.Fatalf("step %d: Dist(%d,%d) = %d, want %d", step, u, v, got, want)
			}
		}
		if !slices.Equal(row, held) {
			t.Fatalf("step %d: Dist calls overwrote the row returned by Row(%d)", step, src)
		}
	}
}

// TestPairReaderCapabilities pins which readers take the pair path:
// the hop-metric streaming reader and the dense table do; weighted
// readers stay row-only, so callers fall back to Row.
func TestPairReaderCapabilities(t *testing.T) {
	g := gen.Petersen()
	w := shortest.UniformWeights(g)
	wstream, err := shortest.NewWeightedStreamSource(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  shortest.DistanceSource
		pair bool
	}{
		{"dense", shortest.NewAPSPParallel(g, 0), true},
		{"stream", shortest.NewStreamSource(g), true},
		{"weighted stream", wstream, false},
	} {
		if _, ok := tc.src.NewReader().(shortest.PairReader); ok != tc.pair {
			t.Errorf("%s: PairReader = %v, want %v", tc.name, ok, tc.pair)
		}
	}
}
