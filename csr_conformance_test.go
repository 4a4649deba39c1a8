// Property tests for the CSR graph core against every conformance
// family: the flat Arcs/BackPorts accessors and the port-indexed
// Neighbor/BackPort lookups must agree arc-for-arc — same order, same
// ports — before a Freeze, after it, and after post-freeze mutation.
// This pins the tentpole invariant the whole stack leans on: freezing
// moves where the rows live, never what they say.
package repro

import (
	"testing"

	"repro/internal/evaluate"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
)

// arcSnapshot records one vertex's arcs as seen through the
// port-indexed Neighbor/BackPort lookups, port 1 first.
type arcSnapshot struct {
	neighbors []graph.NodeID
	backs     []graph.Port
}

func snapshotArcs(g *graph.Graph) []arcSnapshot {
	snap := make([]arcSnapshot, g.Order())
	for u := 0; u < g.Order(); u++ {
		ui := graph.NodeID(u)
		s := &snap[u]
		for p := graph.Port(1); int(p) <= g.Degree(ui); p++ {
			s.neighbors = append(s.neighbors, g.Neighbor(ui, p))
			s.backs = append(s.backs, g.BackPort(ui, p))
		}
	}
	return snap
}

// checkAccessorsAgree asserts Arcs/BackPorts match a Neighbor/BackPort
// snapshot arc-for-arc, and that Neighbor/BackPort still agree with both.
func checkAccessorsAgree(t *testing.T, name string, g *graph.Graph, snap []arcSnapshot) {
	t.Helper()
	for u := 0; u < g.Order(); u++ {
		ui := graph.NodeID(u)
		arcs := g.Arcs(ui)
		backs := g.BackPorts(ui)
		s := snap[u]
		if len(arcs) != len(s.neighbors) || len(backs) != len(s.backs) || len(arcs) != g.Degree(ui) {
			t.Fatalf("%s: vertex %d: slice lengths %d/%d vs snapshot %d (degree %d)",
				name, u, len(arcs), len(backs), len(s.neighbors), g.Degree(ui))
		}
		for i := range arcs {
			p := graph.Port(i + 1)
			if arcs[i] != s.neighbors[i] || arcs[i] != g.Neighbor(ui, p) {
				t.Fatalf("%s: vertex %d port %d: Arcs=%d snapshot=%d Neighbor=%d",
					name, u, p, arcs[i], s.neighbors[i], g.Neighbor(ui, p))
			}
			if backs[i] != s.backs[i] || backs[i] != g.BackPort(ui, p) {
				t.Fatalf("%s: vertex %d port %d: BackPorts=%d snapshot=%d BackPort=%d",
					name, u, p, backs[i], s.backs[i], g.BackPort(ui, p))
			}
		}
	}
}

// TestCSRAccessorsAgreeEverywhere runs the agreement property on every
// conformance graph family, across the whole freeze lifecycle.
func TestCSRAccessorsAgreeEverywhere(t *testing.T) {
	for _, f := range confFamilies() {
		g := f.g
		before := snapshotArcs(g)
		checkAccessorsAgree(t, f.name+"/pre-freeze", g, before)

		g.Freeze()
		if !g.Frozen() {
			t.Fatalf("%s: Freeze did not set the frozen flag", f.name)
		}
		checkAccessorsAgree(t, f.name+"/frozen", g, before)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: frozen graph fails Validate: %v", f.name, err)
		}
		g.Freeze() // idempotent
		checkAccessorsAgree(t, f.name+"/refrozen", g, before)

		// Post-freeze mutation: append a fresh vertex and edge; the row
		// views must reallocate without corrupting the arena neighbors.
		w := g.AddNode()
		g.AddEdge(0, w)
		if g.Frozen() {
			t.Fatalf("%s: mutation left the graph marked frozen", f.name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: post-freeze mutation fails Validate: %v", f.name, err)
		}
		after := snapshotArcs(g)
		checkAccessorsAgree(t, f.name+"/mutated", g, after)
		arcs0 := g.Arcs(0)
		if arcs0[len(arcs0)-1] != w {
			t.Fatalf("%s: new arc 0->%d not visible through Arcs", f.name, w)
		}
		for i, v := range before[0].neighbors {
			if arcs0[i] != v {
				t.Fatalf("%s: post-freeze append moved old arc %d of vertex 0", f.name, i)
			}
		}

		g.Freeze() // re-compact the mutated graph
		checkAccessorsAgree(t, f.name+"/recompacted", g, after)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: re-frozen graph fails Validate: %v", f.name, err)
		}
	}
}

// TestCSRPermutePortsAfterFreeze pins PermutePorts' interaction with the
// arena: relabeling a frozen vertex must keep back pointers mutually
// consistent (Validate) and clear the frozen flag.
func TestCSRPermutePortsAfterFreeze(t *testing.T) {
	for _, f := range confFamilies() {
		g := f.g
		g.Freeze()
		d := g.Degree(0)
		if d < 2 {
			continue
		}
		perm := make([]int, d)
		for i := range perm {
			perm[i] = (i + 1) % d // rotate ports
		}
		g.PermutePorts(0, perm)
		if g.Frozen() {
			t.Fatalf("%s: PermutePorts left the graph marked frozen", f.name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: PermutePorts on frozen graph breaks invariants: %v", f.name, err)
		}
	}
}

// TestEvaluatorWorkerCountsStreamRace routes a shared frozen graph
// through the streaming evaluator at several worker counts — under
// `go test -race` (the CI configuration) this doubles as the data-race
// canary for concurrent CSR reads — and asserts the reports are
// bit-identical across worker counts, dense vs stream.
func TestEvaluatorWorkerCountsStreamRace(t *testing.T) {
	for _, f := range confFamilies() {
		g := f.g
		apsp := shortest.NewAPSPParallel(g, 0)
		s, err := table.New(g, apsp, table.MinPort)
		if err != nil {
			t.Fatalf("%s: tables: %v", f.name, err)
		}
		ref, err := evaluate.Stretch(g, s, apsp, evaluate.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: reference run: %v", f.name, err)
		}
		for _, workers := range []int{2, 4, 8} {
			for _, opt := range []evaluate.Options{
				{Workers: workers, DistMode: evaluate.DistDense},
				{Workers: workers, DistMode: evaluate.DistStream},
			} {
				rep, err := evaluate.Stretch(g, s, apsp, opt)
				if err != nil {
					t.Fatalf("%s: workers=%d mode=%s: %v", f.name, workers, opt.DistMode, err)
				}
				if *rep != *ref {
					t.Fatalf("%s: workers=%d mode=%s report differs from serial reference:\n%+v\nvs\n%+v",
						f.name, workers, opt.DistMode, rep, ref)
				}
			}
		}
	}
}
