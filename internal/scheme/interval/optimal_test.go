package interval

import (
	"testing"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestOptimalLabelsTreesAre1IRS(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.RandomTree(7, xrand.New(seed))
		_, k, err := OptimalLabels(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if k != 1 {
			t.Fatalf("tree (seed %d) got optimal k = %d, want 1", seed, k)
		}
	}
}

func TestOptimalLabelsCycle(t *testing.T) {
	g := gen.Cycle(7)
	_, k, err := OptimalLabels(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("C_7 optimal k = %d, want 1", k)
	}
}

func TestOptimalLabelsComplete(t *testing.T) {
	g := gen.Complete(6)
	_, k, err := OptimalLabels(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("K_6 optimal k = %d, want 1", k)
	}
}

func TestOptimalLabelsPetersenSubset(t *testing.T) {
	// 3x3 grid: known to admit a 1-IRS (row-major snake labeling).
	g := gen.Grid2D(3, 3)
	labels, k, err := OptimalLabels(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("3x3 grid optimal k = %d, want 1", k)
	}
	// The returned labeling must actually route correctly.
	s, err := New(g, nil, Options{Labels: labels, Policy: RunGreedy})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("optimal labeling routes with stretch %v", rep.Max)
	}
}

func TestOptimalLabelsRefusesLargeGraphs(t *testing.T) {
	g := gen.Cycle(12)
	if _, _, err := OptimalLabels(g, nil); err == nil {
		t.Fatal("factorial search accepted n = 12")
	}
}

func TestOptimalNeverWorseThanHeuristics(t *testing.T) {
	for seed := uint64(1); seed < 8; seed++ {
		g := gen.RandomConnected(8, 0.4, xrand.New(seed))
		_, kOpt, err := OptimalLabels(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		sDFS, err := New(g, nil, Options{Labels: DFSLabels(g), Policy: RunGreedy})
		if err != nil {
			t.Fatal(err)
		}
		if kOpt > sDFS.MaxIntervalsPerArc() {
			t.Fatalf("seed %d: optimal k=%d worse than DFS heuristic k=%d",
				seed, kOpt, sDFS.MaxIntervalsPerArc())
		}
	}
}

func TestIRSNumberSingleton(t *testing.T) {
	g := graph.New(1)
	if _, _, err := OptimalLabels(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalLabelsDeterministic(t *testing.T) {
	g := gen.RandomConnected(7, 0.4, xrand.New(9))
	l1, k1, err := OptimalLabels(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, k2, err := OptimalLabels(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("optimal search nondeterministic in k")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("optimal search nondeterministic in labels")
		}
	}
}
