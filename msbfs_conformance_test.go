// Kernel conformance suite for the MS-BFS batch kernel: the property
// that lets every dense table be built from 64-source batches instead of
// one BFS per row without changing a recorded number is
//
//	MSBFSInto(g, sources)[i] == BFSInto(g, sources[i])  element-for-element
//
// for EVERY source, on every conformance family and on the adversarial
// shapes a word-parallel frontier gets wrong first (disconnected
// graphs, stars, long paths, a single vertex, orders that are not a
// multiple of 64, dead port slots left by faults). The suite partitions
// the sources at batch widths 1, 63, 64 and 65 — below, at, and across
// the word boundary — under the kernel's direction rule and under each
// direction forced on every level, and checks the batched APSP builder
// at three worker counts against the serial reference.
package repro

import (
	"reflect"
	"testing"
	_ "unsafe" // go:linkname, for msbfsForce

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// msbfsForce is internal/shortest's unexported direction override
// (msbfsForce; type msbfsDirection, a uint8): 0 runs the per-level cost
// rule, 1 forces every level top-down, 2 every level bottom-up. The
// kernel's own tests set it through export_test.go; this package cannot
// see that file, so it reaches the same variable by linkname.
//
//go:linkname msbfsForce repro/internal/shortest.msbfsForce
var msbfsForce uint8

// msbfsDirections names the values of msbfsForce the suite runs under.
var msbfsDirections = []struct {
	name string
	dir  uint8
}{{"rule", 0}, {"top-down", 1}, {"bottom-up", 2}}

// faultedRandom is a seeded random graph that lost every seventh edge
// to RemoveEdge and one vertex to RemoveVertex: the dead port slots the
// bottom-up pass must skip in the arcs of every vertex it probes.
func faultedRandom() *graph.Graph {
	g := gen.RandomConnected(200, 0.05, xrand.New(9))
	for i, e := range g.Edges() {
		if i%7 == 0 {
			g.RemoveEdge(e[0], e[1])
		}
	}
	g.RemoveVertex(100)
	return g
}

// msbfsConfGraphs returns the kernel conformance corpus: every routing
// conformance family plus the adversarial shapes for a bit-parallel
// frontier. Seeded generators keep the corpus reproducible.
func msbfsConfGraphs() []struct {
	name string
	g    *graph.Graph
} {
	twoComponents := graph.New(130) // two paths of 65: ragged AND disconnected
	for v := 0; v < 64; v++ {
		twoComponents.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
		twoComponents.AddEdge(graph.NodeID(65+v), graph.NodeID(65+v+1))
	}
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"single vertex", graph.New(1)},
		{"path(130)", gen.Path(130)},
		{"star(65)", gen.Star(65)},
		{"two components 65+65", twoComponents},
		{"random(63,seed5)", gen.RandomConnected(63, 0.1, xrand.New(5))},
		{"random(65,seed6)", gen.RandomConnected(65, 0.1, xrand.New(6))},
		{"random(200,seed7)", gen.RandomConnected(200, 0.05, xrand.New(7))},
		{"random(200,seed8)", gen.RandomConnected(200, 0.05, xrand.New(8))},
		{"random(200,seed9) faulted", faultedRandom()},
	}
	for _, f := range confFamilies() {
		gs = append(gs, struct {
			name string
			g    *graph.Graph
		}{f.name, f.g})
	}
	return gs
}

// scalarReference computes the per-source reference rows with the
// scalar kernel the repository has always used.
func scalarReference(g *graph.Graph) [][]int32 {
	n := g.Order()
	rows := make([][]int32, n)
	var queue []graph.NodeID
	for v := 0; v < n; v++ {
		rows[v], queue = shortest.BFSInto(g, graph.NodeID(v), nil, queue)
	}
	return rows
}

// TestMSBFSKernelConformance is the headline property: batched rows
// equal scalar rows element-for-element for every source, at batch
// widths below, at, and across the 64-lane word boundary, with dist and
// scratch buffers reused across batches exactly as the claiming workers
// reuse them — under the direction rule and with every level forced
// top-down or bottom-up.
func TestMSBFSKernelConformance(t *testing.T) {
	for _, tc := range msbfsConfGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			want := scalarReference(g)
			for _, d := range msbfsDirections {
				t.Run(d.name, func(t *testing.T) {
					defer func(prev uint8) { msbfsForce = prev }(msbfsForce)
					msbfsForce = d.dir
					checkMSBFSWidths(t, g, want)
				})
			}
		})
	}
}

// checkMSBFSWidths partitions the sources of g at batch widths 1, 63, 64
// and 65 and compares every lane with the scalar rows want.
func checkMSBFSWidths(t *testing.T, g *graph.Graph, want [][]int32) {
	t.Helper()
	n := g.Order()
	for _, width := range []int{1, 63, 64, 65} {
		var (
			dist []int32
			scr  *shortest.MSBFSScratch
			srcs []graph.NodeID
		)
		for start := 0; start < n; start += width {
			end := min(start+width, n)
			srcs = srcs[:0]
			for v := start; v < end; v++ {
				srcs = append(srcs, graph.NodeID(v))
			}
			dist, scr = shortest.MSBFSInto(g, srcs, dist, scr)
			for i, s := range srcs {
				if got := dist[i*n : (i+1)*n]; !reflect.DeepEqual(got, want[s]) {
					t.Fatalf("width=%d: lane %d (source %d) differs from scalar BFS", width, i, s)
				}
			}
		}
	}
}

// bfsRows is the serial reference table: one scalar BFS per row.
func bfsRows(g *graph.Graph) [][]int32 {
	rows := make([][]int32, g.Order())
	for u := range rows {
		rows[u] = shortest.BFS(g, graph.NodeID(u))
	}
	return rows
}

// TestMSBFSAPSPWorkerConformance pins the batch claim protocol end to
// end: a batched table build equals the serial scalar reference
// bit-for-bit at three worker counts, on every conformance graph.
func TestMSBFSAPSPWorkerConformance(t *testing.T) {
	for _, tc := range msbfsConfGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			ref := bfsRows(g)
			for _, workers := range []int{1, 3, 8} {
				a := shortest.NewAPSPParallel(g, workers)
				for u := 0; u < g.Order(); u++ {
					if !reflect.DeepEqual(a.Row(graph.NodeID(u)), ref[u]) {
						t.Fatalf("workers=%d: row %d differs from the per-row BFS reference", workers, u)
					}
				}
			}
		})
	}
}
