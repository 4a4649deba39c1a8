package ecube

import (
	"testing"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/xrand"
)

func TestEcubeShortestOnHypercubes(t *testing.T) {
	for d := 1; d <= 6; d++ {
		g := gen.Hypercube(d)
		s, err := New(g, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if rep.Max != 1.0 {
			t.Fatalf("d=%d: e-cube stretch %v, want 1", d, rep.Max)
		}
	}
}

func TestEcubeLocalBitsLogN(t *testing.T) {
	// The paper's Section 1: MEM_local(H, 1) = Θ(log n). e-cube stores
	// exactly d = log2 n bits per router.
	for d := 2; d <= 8; d++ {
		g := gen.Hypercube(d)
		s, err := New(g, d)
		if err != nil {
			t.Fatal(err)
		}
		rep := evaluate.Memory(g, s, evaluate.Options{})
		if rep.LocalBits != d {
			t.Fatalf("d=%d: LocalBits %d, want %d", d, rep.LocalBits, d)
		}
	}
}

func TestEcubeRejectsWrongOrder(t *testing.T) {
	g := gen.Cycle(6)
	if _, err := New(g, 3); err == nil {
		t.Fatal("accepted a non-hypercube order")
	}
}

func TestEcubeRejectsScrambledPorts(t *testing.T) {
	g := gen.Hypercube(3)
	r := xrand.New(1)
	// Scramble until some vertex's labeling actually changes.
	for u := 0; u < g.Order(); u++ {
		g.PermutePorts(graph.NodeID(u), r.Perm(3))
	}
	if _, err := New(g, 3); err == nil {
		t.Fatal("accepted a hypercube with scrambled ports")
	}
}

func TestEcubeDimensionOrder(t *testing.T) {
	// Routing from 000..0 to 111..1 must fix bits lowest-first.
	g := gen.Hypercube(3)
	s, err := New(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := routing.Route(g, s, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := []graph.NodeID{0, 1, 3, 7}
	if len(hops) != len(wantNodes) {
		t.Fatalf("path length %d, want %d", len(hops), len(wantNodes))
	}
	for i, h := range hops {
		if h.Node != wantNodes[i] {
			t.Fatalf("hop %d at %d, want %d", i, h.Node, wantNodes[i])
		}
	}
}

func TestTrivialCube(t *testing.T) {
	g := gen.Hypercube(0)
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.LocalBits(0) != 0 {
		t.Fatal("H_0 router should need 0 bits")
	}
}
