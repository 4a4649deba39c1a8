package tree

import (
	"testing"
	"testing/quick"

	"repro/internal/coding"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestTreeRoutingShortestProperty(t *testing.T) {
	check := func(seed uint64, nn uint8, rootSel uint8) bool {
		n := int(nn%60) + 1
		g := gen.RandomTree(n, xrand.New(seed))
		root := graph.NodeID(int(rootSel) % n)
		s, err := New(g, root)
		if err != nil {
			return false
		}
		rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
		if err != nil {
			return false
		}
		return n == 1 || rep.Max == 1.0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRejectsCycle(t *testing.T) {
	if _, err := New(gen.Cycle(5), 0); err == nil {
		t.Fatal("cycle accepted as a tree")
	}
}

func TestTreeRejectsForest(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	// 3 vertices... this forest has n=4, edges=2 != 3.
	if _, err := New(g, 0); err == nil {
		t.Fatal("forest accepted as a tree")
	}
}

func TestDFSLabelsAreContiguousIntervals(t *testing.T) {
	g := gen.RandomTree(40, xrand.New(8))
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex label must be unique and in [0, n).
	seen := make([]bool, 40)
	for v := 0; v < 40; v++ {
		l := s.Label(graph.NodeID(v))
		if l < 0 || l >= 40 || seen[l] {
			t.Fatalf("bad DFS label %d at vertex %d", l, v)
		}
		seen[l] = true
	}
}

func TestPathTreeMemory(t *testing.T) {
	// On a path, every router keeps O(1) intervals: bits = O(log n).
	g := gen.Path(128)
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := evaluate.Memory(g, s, evaluate.Options{})
	// own interval (2*8) + parent port (1) + one child interval (2*8).
	if rep.LocalBits > 40 {
		t.Fatalf("path router needs %d bits, want O(log n) ~ <= 40", rep.LocalBits)
	}
}

func TestStarTreeMemory(t *testing.T) {
	// The center of a star keeps one interval per leaf: Θ(d log n), the
	// paper's O(d log n) bound for interval routing with d = n-1.
	n := 64
	g := gen.Star(n)
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	wn := coding.BitsFor(uint64(n))
	center := s.LocalBits(0)
	if center < (n-1)*2*wn {
		t.Fatalf("star center stores %d bits, expected at least %d", center, (n-1)*2*wn)
	}
	leaf := s.LocalBits(1)
	if leaf > 4*wn {
		t.Fatalf("star leaf stores %d bits, expected O(log n)", leaf)
	}
}

func TestSingletonTree(t *testing.T) {
	g := graph.New(1)
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluate.Stretch(g, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCaterpillarRouting(t *testing.T) {
	g := gen.Caterpillar(10, 15)
	s, err := New(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluate.Stretch(g, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryTreeRouting(t *testing.T) {
	g := gen.CompleteBinaryTree(31)
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("binary tree stretch %v", rep.Max)
	}
}
