package oracle

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func TestOracleStretchBoundProperty(t *testing.T) {
	check := func(seed uint64, nn uint8, kk uint8) bool {
		n := int(nn%40) + 5
		k := int(kk%3) + 2 // 2..4
		g := gen.RandomConnected(n, 0.15, xrand.New(seed))
		apsp := shortest.NewAPSPParallel(g, 0)
		o, err := New(g, apsp, Options{K: k, Seed: seed})
		if err != nil {
			return false
		}
		maxStretch := int32(2*k - 1)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				est := o.Query(graph.NodeID(u), graph.NodeID(v))
				d := apsp.Dist(graph.NodeID(u), graph.NodeID(v))
				if est < d || est > maxStretch*d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleExactOnSelfPivots(t *testing.T) {
	g := gen.Cycle(12)
	o, err := New(g, nil, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Query(u, u) is not defined by the API (distance 0 pairs are
	// trivial); adjacent pairs must come back >= 1.
	if est := o.Query(0, 1); est < 1 || est > 3 {
		t.Fatalf("adjacent estimate %d out of [1,3]", est)
	}
}

func TestOracleSymmetricEstimates(t *testing.T) {
	// The query walk is symmetric in expectation but not per-pair; both
	// directions must nevertheless satisfy the stretch bound.
	g := gen.RandomConnected(40, 0.12, xrand.New(3))
	apsp := shortest.NewAPSPParallel(g, 0)
	o, err := New(g, apsp, Options{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			d := apsp.Dist(graph.NodeID(u), graph.NodeID(v))
			for _, est := range []int32{o.Query(graph.NodeID(u), graph.NodeID(v)), o.Query(graph.NodeID(v), graph.NodeID(u))} {
				if est < d || est > 5*d {
					t.Fatalf("estimate %d for distance %d violates 2k-1 = 5", est, d)
				}
			}
		}
	}
}

func TestOracleSizeShrinksWithK(t *testing.T) {
	// The Table 1 mechanism: more levels => smaller bunches. Compare the
	// max per-vertex state for k = 2 vs k = 4 on a graph large enough for
	// sampling to bite; allow slack since the guarantee is in expectation.
	g := gen.RandomConnected(300, 0.03, xrand.New(5))
	apsp := shortest.NewAPSPParallel(g, 0)
	o2, err := New(g, apsp, Options{K: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	o4, err := New(g, apsp, Options{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if o4.TotalEntries() >= o2.TotalEntries() {
		t.Fatalf("k=4 oracle (%d entries) not smaller than k=2 (%d)", o4.TotalEntries(), o2.TotalEntries())
	}
}

func TestOracleRejectsBadK(t *testing.T) {
	g := gen.Cycle(10)
	if _, err := New(g, nil, Options{K: 1, Seed: 1}); err == nil {
		t.Fatal("K=1 accepted")
	}
}

func TestOracleRejectsDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, err := New(g, nil, Options{K: 2, Seed: 1}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestOracleBunchAccounting(t *testing.T) {
	g := gen.RandomConnected(60, 0.1, xrand.New(7))
	o, err := New(g, nil, Options{K: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	maxB := 0
	for v := 0; v < 60; v++ {
		s := o.BunchSize(graph.NodeID(v))
		total += s
		if s > maxB {
			maxB = s
		}
		if s < 1 {
			t.Fatalf("vertex %d has an empty bunch", v)
		}
		if o.LocalBits(graph.NodeID(v)) <= 0 {
			t.Fatalf("vertex %d has nonpositive local bits", v)
		}
	}
	if total != o.TotalEntries() || maxB != o.MaxBunch() {
		t.Fatal("aggregate accessors disagree with per-vertex sums")
	}
}

func TestOracleDeterministic(t *testing.T) {
	g1 := gen.RandomConnected(50, 0.1, xrand.New(9))
	g2 := gen.RandomConnected(50, 0.1, xrand.New(9))
	o1, _ := New(g1, nil, Options{K: 3, Seed: 10})
	o2, _ := New(g2, nil, Options{K: 3, Seed: 10})
	if o1.TotalEntries() != o2.TotalEntries() || o1.MaxBunch() != o2.MaxBunch() {
		t.Fatal("oracle construction not deterministic under fixed seed")
	}
}
