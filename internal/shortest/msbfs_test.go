package shortest

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// msbfsDirections are the three ways msbfsChunk may expand its levels:
// the production cost rule and each direction forced on every level.
// The kernel tests run under all three, so both passes are proven on
// every input, not only on the levels where the rule picks them.
var msbfsDirections = []struct {
	name string
	dir  msbfsDirection
}{
	{"rule", dirRule},
	{"top-down", dirTopDown},
	{"bottom-up", dirBottomUp},
}

// msbfsRows runs MSBFSInto and slices the flat block into per-source
// rows for comparison.
func msbfsRows(t *testing.T, g *graph.Graph, sources []graph.NodeID, dist []int32, scr *MSBFSScratch) ([][]int32, []int32, *MSBFSScratch) {
	t.Helper()
	n := g.Order()
	dist, scr = MSBFSInto(g, sources, dist, scr)
	if len(dist) != len(sources)*n {
		t.Fatalf("MSBFSInto block length %d, want %d*%d", len(dist), len(sources), n)
	}
	rows := make([][]int32, len(sources))
	for i := range sources {
		rows[i] = dist[i*n : (i+1)*n]
	}
	return rows, dist, scr
}

// disconnectedGraph is two path components: 0-1-2 and 3-4-5.
func disconnectedGraph() *graph.Graph {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	return g
}

// pathGraph is the n-vertex path 0-1-…-(n-1): maximal diameter, the
// worst case for level-synchronized batching.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	return g
}

// starGraph is the n-vertex star with center 0.
func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, graph.NodeID(v))
	}
	return g
}

// TestMSBFSIntoEdgeCases is the table-driven edge-case suite: every case
// asserts each lane's row equals the scalar BFSInto row element for
// element — including lanes that must stay Unreachable everywhere they
// cannot reach — under the direction rule and under each forced
// direction.
func TestMSBFSIntoEdgeCases(t *testing.T) {
	wide := make([]graph.NodeID, 65) // > one word: exercises chunking
	for i := range wide {
		wide[i] = graph.NodeID(i % 9)
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		sources []graph.NodeID
	}{
		{"empty batch", sourceTestGraph(), nil},
		{"batch of 1", sourceTestGraph(), []graph.NodeID{4}},
		{"duplicate sources", sourceTestGraph(), []graph.NodeID{3, 3, 5, 3}},
		{"disconnected components", disconnectedGraph(), []graph.NodeID{0, 2, 3, 5}},
		{"disconnected full batch", disconnectedGraph(), []graph.NodeID{0, 1, 2, 3, 4, 5}},
		{"n < 64 full batch", sourceTestGraph(), []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"single vertex", graph.New(1), []graph.NodeID{0}},
		{"path", pathGraph(30), []graph.NodeID{0, 29, 15}},
		{"star", starGraph(40), []graph.NodeID{0, 1, 39}},
		{"wider than one word", sourceTestGraph(), wide},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range msbfsDirections {
				t.Run(d.name, func(t *testing.T) {
					defer SetMSBFSDirection(d.dir)()
					rows, _, _ := msbfsRows(t, tc.g, tc.sources, nil, nil)
					for i, s := range tc.sources {
						want := BFS(tc.g, s)
						if !reflect.DeepEqual(rows[i], want) {
							t.Fatalf("lane %d (source %d): row %v, want %v", i, s, rows[i], want)
						}
					}
				})
			}
		})
	}
}

// TestMSBFSIntoUnreachableStaysInEveryLane pins the disconnected
// contract explicitly: for sources in one component, every vertex of the
// other component reports Unreachable in every lane.
func TestMSBFSIntoUnreachableStaysInEveryLane(t *testing.T) {
	g := disconnectedGraph()
	sources := []graph.NodeID{0, 1, 2}
	rows, _, _ := msbfsRows(t, g, sources, nil, nil)
	for i := range sources {
		for _, v := range []graph.NodeID{3, 4, 5} {
			if rows[i][v] != Unreachable {
				t.Fatalf("lane %d: vertex %d got distance %d, want Unreachable", i, v, rows[i][v])
			}
		}
	}
}

// TestMSBFSIntoReusesScratch checks the zero-allocation steady state the
// batch-claiming workers depend on: buffers big enough are reused in
// place across batches, and the reused-scratch rows still match BFS.
func TestMSBFSIntoReusesScratch(t *testing.T) {
	g := sourceTestGraph()
	first := []graph.NodeID{0, 1, 2, 3}
	dist, scr := MSBFSInto(g, first, nil, nil)
	second := []graph.NodeID{5, 6, 7, 8}
	d2, s2 := MSBFSInto(g, second, dist, scr)
	if &d2[0] != &dist[0] {
		t.Fatal("MSBFSInto reallocated a dist block that was large enough")
	}
	if s2 != scr {
		t.Fatal("MSBFSInto replaced the scratch it was given")
	}
	n := g.Order()
	for i, s := range second {
		if !reflect.DeepEqual(d2[i*n:(i+1)*n], BFS(g, s)) {
			t.Fatalf("reused-scratch lane %d (source %d) differs from fresh BFS", i, s)
		}
	}
	// A smaller batch into the same scratch must also stay exact (stale
	// words from the wider batch must not leak).
	d3, _ := MSBFSInto(g, []graph.NodeID{4}, d2, s2)
	if !reflect.DeepEqual(d3[:n], BFS(g, 4)) {
		t.Fatal("narrow batch after wide batch differs from fresh BFS")
	}
}

// TestMSBFSIntoAllocationFree pins the steady state of a warmed scratch
// and dist block: MSBFSInto allocates nothing per call, in either
// direction and under the rule, on a batch wider than one chunk.
func TestMSBFSIntoAllocationFree(t *testing.T) {
	g := gen.RandomConnected(300, 0.03, xrand.New(3))
	g.Freeze()
	srcs := make([]graph.NodeID, 2*MSBFSWidth+5)
	for i := range srcs {
		srcs[i] = graph.NodeID(i * 7 % g.Order())
	}
	for _, d := range msbfsDirections {
		t.Run(d.name, func(t *testing.T) {
			defer SetMSBFSDirection(d.dir)()
			dist, scr := MSBFSInto(g, srcs, nil, nil)
			if allocs := testing.AllocsPerRun(20, func() {
				dist, scr = MSBFSInto(g, srcs, dist, scr)
			}); allocs != 0 {
				t.Fatalf("warmed MSBFSInto allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestTranspose64 checks the bit-matrix transpose behind the tiled lane
// writes against the element-by-element definition.
func TestTranspose64(t *testing.T) {
	r := xrand.New(4)
	for trial := 0; trial < 20; trial++ {
		var m, want [MSBFSWidth]uint64
		for i := range m {
			m[i] = r.Uint64()
			if trial%4 == 0 {
				m[i] &= r.Uint64() & r.Uint64() & r.Uint64() // sparse rows
			}
		}
		for i := range m {
			for w := m[i]; w != 0; w &= w - 1 {
				want[bits.TrailingZeros64(w)] |= 1 << uint(i)
			}
		}
		transpose64(&m)
		if m != want {
			t.Fatalf("trial %d: transpose differs from the definition", trial)
		}
	}
}

// FuzzMSBFS pins the batch kernel to BFSInto on the graphs
// fuzzPairGraph decodes from data[1:] — dead ports left by removed edges,
// removed vertices, several components. data[0] sets the source count
// (1..130, so batches cross the 64-lane boundary) and the sources are
// the bytes of data[1:] read cyclically modulo n, duplicates included.
// One dist block and one scratch serve two calls — the full list, then
// its reversed second half — so state a wide batch leaves behind would
// surface in the narrower one. Every input runs under the direction rule
// and under each forced direction.
func FuzzMSBFS(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		rest := data[1:]
		g, _, _ := fuzzPairGraph(rest)
		if g == nil {
			return
		}
		n := g.Order()
		srcs := make([]graph.NodeID, 1+int(data[0])%130)
		for i := range srcs {
			srcs[i] = graph.NodeID(int(rest[i%len(rest)]) % n)
		}
		var (
			want  []int32
			queue []graph.NodeID
		)
		for _, d := range msbfsDirections {
			func() {
				defer SetMSBFSDirection(d.dir)()
				var (
					dist []int32
					scr  *MSBFSScratch
				)
				batch := append([]graph.NodeID(nil), srcs...)
				for pass := 0; pass < 2; pass++ {
					dist, scr = MSBFSInto(g, batch, dist, scr)
					for i, s := range batch {
						want, queue = BFSInto(g, s, want, queue)
						if !reflect.DeepEqual(dist[i*n:(i+1)*n], want) {
							t.Fatalf("%s, pass %d: lane %d (source %d) = %v, BFSInto = %v", d.name, pass, i, s, dist[i*n:(i+1)*n], want)
						}
					}
					batch = batch[len(batch)/2:]
					for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
						batch[i], batch[j] = batch[j], batch[i]
					}
				}
			}()
		}
	})
}
