package shortest

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// sourceTestGraph is a small connected graph with a nontrivial distance
// profile: a 3x3 grid with one chord.
func sourceTestGraph() *graph.Graph {
	g := graph.New(9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			v := graph.NodeID(3*r + c)
			if c < 2 {
				g.AddEdge(v, v+1)
			}
			if r < 2 {
				g.AddEdge(v, v+3)
			}
		}
	}
	g.AddEdge(0, 8)
	return g
}

// TestSourcesAgreeWithBFS pins the backend contract: every source's
// every row equals the plain BFS row, for repeated and interleaved
// requests.
func TestSourcesAgreeWithBFS(t *testing.T) {
	g := sourceTestGraph()
	n := g.Order()
	want := make([][]int32, n)
	for v := 0; v < n; v++ {
		want[v] = BFS(g, graph.NodeID(v))
	}
	sources := map[string]DistanceSource{
		"dense":  NewAPSPParallel(g, 0),
		"stream": NewStreamSource(g),
	}
	for name, src := range sources {
		if src.Order() != n {
			t.Fatalf("%s: order %d, want %d", name, src.Order(), n)
		}
		rd := src.NewReader()
		// Interleave rows so stream scratch reuse is exercised; ask some
		// rows twice in a row (the memoized path).
		for _, v := range []int{0, 5, 5, 8, 0, 3, 3, 1, 7, 0} {
			got := rd.Row(graph.NodeID(v))
			if !reflect.DeepEqual(got, want[v]) {
				t.Fatalf("%s: row %d = %v, want %v", name, v, got, want[v])
			}
		}
	}
}

// TestWeightedSourcesAgreeWithDijkstra pins the weighted backend
// contract: every weighted source's every row equals the plain Dijkstra
// row under the same weights, for repeated and interleaved requests —
// the weighted mirror of TestSourcesAgreeWithBFS.
func TestWeightedSourcesAgreeWithDijkstra(t *testing.T) {
	g := sourceTestGraph()
	n := g.Order()
	w := UniformWeights(g)
	// Perturb a few edges so weighted rows genuinely differ from BFS rows.
	for _, e := range [][2]graph.NodeID{{0, 1}, {4, 5}, {0, 8}} {
		p := g.PortTo(e[0], e[1])
		w[e[0]][p-1] = 7
		w[e[1]][g.BackPort(e[0], p)-1] = 7
	}
	want := make([][]int32, n)
	for v := 0; v < n; v++ {
		want[v] = Dijkstra(g, w, graph.NodeID(v))
	}
	dense, err := NewWeightedAPSPParallel(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewWeightedStreamSource(g, w)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]DistanceSource{"dense": dense, "stream": stream}
	for name, src := range sources {
		if src.Order() != n {
			t.Fatalf("%s: order %d, want %d", name, src.Order(), n)
		}
		rd := src.NewReader()
		for _, v := range []int{0, 5, 5, 8, 0, 3, 3, 1, 7, 0} {
			got := rd.Row(graph.NodeID(v))
			if !reflect.DeepEqual(got, want[v]) {
				t.Fatalf("%s: row %d = %v, want %v", name, v, got, want[v])
			}
		}
	}
	// Residency hints follow the same contracts as the unweighted sources.
	if got := stream.ResidentRows(4); got != 4 {
		t.Fatalf("weighted stream hint %d, want 4", got)
	}
}

// TestWeightedSourcesRejectMalformedWeights checks validation happens at
// construction — before any reader can trip over a bad assignment.
func TestWeightedSourcesRejectMalformedWeights(t *testing.T) {
	g := sourceTestGraph()
	bad := UniformWeights(g)
	bad[2] = bad[2][:1]
	if _, err := NewWeightedStreamSource(g, bad); err == nil {
		t.Fatal("stream source accepted malformed weights")
	}
}

// TestResidentRowsHints pins the bulk memory hints each backend reports.
func TestResidentRowsHints(t *testing.T) {
	g := sourceTestGraph() // n = 9
	if got := NewAPSPParallel(g, 0).ResidentRows(4); got != 9 {
		t.Fatalf("dense hint %d, want n=9", got)
	}
	if got := NewStreamSource(g).ResidentRows(4); got != 4 {
		t.Fatalf("stream hint %d, want workers=4", got)
	}
	if got := NewStreamSource(g).ResidentRows(64); got != 9 {
		t.Fatalf("stream hint %d, want clamp to n=9", got)
	}
}

// TestBFSIntoReusesScratch checks the zero-allocation steady state the
// streaming reader depends on: buffers big enough are reused in place.
func TestBFSIntoReusesScratch(t *testing.T) {
	g := sourceTestGraph()
	dist, queue := BFSInto(g, 0, nil, nil)
	d2, q2 := BFSInto(g, 4, dist, queue)
	if &d2[0] != &dist[0] || &q2[0] != &queue[:1][0] {
		t.Fatal("BFSInto reallocated buffers that were large enough")
	}
	if !reflect.DeepEqual(d2, BFS(g, 4)) {
		t.Fatal("reused-scratch row differs from fresh BFS")
	}
}
