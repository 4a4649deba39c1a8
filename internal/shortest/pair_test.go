package shortest

import (
	"testing"

	"repro/internal/graph"
)

// fuzzPairGraph decodes a graph and a query pair from bytes: data[0]
// sets the order (1..48), data[1] and data[2] the pair, and each later
// byte pair (a, b) toggles the edge {a, b} — added when absent, removed
// when present — or, when a == b, removes vertex a. Edges at a removed
// vertex are skipped, so every input decodes to a valid graph with
// arbitrary dead ports, components and removed vertices.
func fuzzPairGraph(data []byte) (g *graph.Graph, u, v graph.NodeID) {
	if len(data) < 3 {
		return nil, 0, 0
	}
	n := 1 + int(data[0])%48
	g = graph.New(n)
	u, v = graph.NodeID(int(data[1])%n), graph.NodeID(int(data[2])%n)
	for rest := data[3:]; len(rest) >= 2; rest = rest[2:] {
		a, b := graph.NodeID(int(rest[0])%n), graph.NodeID(int(rest[1])%n)
		switch {
		case g.Removed(a) || g.Removed(b):
		case a == b:
			g.RemoveVertex(a)
		case g.HasEdge(a, b):
			g.RemoveEdge(a, b)
		default:
			g.AddEdge(a, b)
		}
	}
	return g, u, v
}

// FuzzPairDist pins the bidirectional pair search to the BFS row on
// arbitrary small graphs: the decoded pair first, then every ordered
// pair on the same reader, so scratch left behind by one query would
// surface in a later one.
func FuzzPairDist(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, u, v := fuzzPairGraph(data)
		if g == nil {
			return
		}
		rd := NewStreamSource(g).NewReader().(PairReader)
		if got, want := rd.Dist(u, v), BFS(g, u)[v]; got != want {
			t.Fatalf("Dist(%d,%d) = %d, want %d", u, v, got, want)
		}
		apsp := NewAPSPParallel(g, 0)
		n := g.Order()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if got, want := rd.Dist(graph.NodeID(x), graph.NodeID(y)), apsp.Dist(graph.NodeID(x), graph.NodeID(y)); got != want {
					t.Fatalf("Dist(%d,%d) = %d, want %d", x, y, got, want)
				}
			}
		}
	})
}
