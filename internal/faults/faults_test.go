package faults

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func TestPlanDeterministic(t *testing.T) {
	g := gen.RandomConnected(48, 0.12, xrand.New(7))
	opt := Options{Mode: KillEdges, Count: 6, Seed: 99, KeepConnected: true}
	p1, err := NewPlan(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same (graph, options) produced different plans:\n%v\n%v", p1, p2)
	}
	if len(p1.Edges) != 6 || len(p1.Vertices) != 0 {
		t.Fatalf("plan shape wrong: %+v", p1)
	}
	seen := map[[2]graph.NodeID]bool{}
	for _, e := range p1.Edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not canonical (u < v)", e)
		}
		if seen[e] {
			t.Fatalf("duplicate victim %v", e)
		}
		seen[e] = true
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("victim %v not an edge of g", e)
		}
	}
}

func TestPlanKeepsConnected(t *testing.T) {
	g := gen.RandomConnected(40, 0.1, xrand.New(3))
	p, err := NewPlan(g, Options{Mode: KillEdges, Count: 8, Seed: 1, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	p.Apply(h)
	if !h.Connected() {
		t.Fatal("KeepConnected plan disconnected the graph")
	}
	if h.Size() != g.Size()-8 {
		t.Fatalf("edge count %d, want %d", h.Size(), g.Size()-8)
	}
}

func TestPlanTreeRejectsEdgeKills(t *testing.T) {
	g := gen.RandomTree(31, xrand.New(5))
	if _, err := NewPlan(g, Options{Mode: KillEdges, Count: 1, Seed: 1, KeepConnected: true}); err == nil {
		t.Fatal("every tree edge is a bridge; plan should be unsatisfiable")
	}
}

func TestPlanVertexKills(t *testing.T) {
	g := gen.Complete(12)
	p, err := NewPlan(g, Options{Mode: KillVertices, Count: 3, Seed: 4, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	p.Apply(h)
	if h.LiveOrder() != 9 || !h.Connected() {
		t.Fatalf("live order %d (want 9), connected %v", h.LiveOrder(), h.Connected())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestByDegreePrefersHubs(t *testing.T) {
	// A star plus a long path: the hub has degree 10, path vertices 1-2.
	// Degree weighting must pick hub-incident victims far more often than
	// uniform would across seeds.
	g := graph.New(21)
	for i := 1; i <= 10; i++ {
		g.AddEdge(0, graph.NodeID(i))
	}
	for i := 10; i < 20; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	hub := 0
	for seed := uint64(0); seed < 40; seed++ {
		p, err := NewPlan(g, Options{Mode: KillEdges, Count: 1, Seed: seed, Weighting: ByDegree})
		if err != nil {
			t.Fatal(err)
		}
		if p.Edges[0][0] == 0 {
			hub++
		}
	}
	// Hub edges carry weight 10+1=11 (or 11+2), path edges ~3-4: expected
	// hub share is ~75%; demand a clear majority.
	if hub < 25 {
		t.Fatalf("ByDegree picked hub edges only %d/40 times", hub)
	}
}

// TestDirtyRootsSound pins the dirty-set criterion against brute force:
// every root whose refreshed row differs from the pre-fault row must be
// in DirtyRoots' superset.
func TestDirtyRootsSound(t *testing.T) {
	g := gen.RandomConnected(56, 0.09, xrand.New(11))
	pre := shortest.NewAPSPParallel(g, 0)
	p, err := NewPlan(g, Options{Mode: KillEdges, Count: 5, Seed: 23, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	dirtySet := map[graph.NodeID]bool{}
	for _, v := range DirtyRoots(pre, p.Edges) {
		dirtySet[v] = true
	}
	h := g.Clone()
	p.Apply(h)
	post := shortest.NewAPSPParallel(h, 0)
	for v := 0; v < g.Order(); v++ {
		vi := graph.NodeID(v)
		if !reflect.DeepEqual(pre.Row(vi), post.Row(vi)) && !dirtySet[vi] {
			t.Fatalf("root %d changed but is not in the dirty set", v)
		}
	}
}

// TestRefreshRowsMatchesRebuild pins the in-place refresh: refreshing
// the dirty rows of the pre-fault table yields the post-fault table.
func TestRefreshRowsMatchesRebuild(t *testing.T) {
	g := gen.Torus2D(6, 6)
	pre := shortest.NewAPSPParallel(g, 0)
	p, err := NewPlan(g, Options{Mode: KillEdges, Count: 4, Seed: 9, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	dirty := DirtyRoots(pre, p.Edges)
	h := g.Clone()
	p.Apply(h)
	pre.RefreshRows(h, dirty)
	post := shortest.NewAPSPParallel(h, 0)
	for v := 0; v < h.Order(); v++ {
		vi := graph.NodeID(v)
		if !reflect.DeepEqual(pre.Row(vi), post.Row(vi)) {
			t.Fatalf("refreshed row %d differs from rebuild", v)
		}
	}
}
