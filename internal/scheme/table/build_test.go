package table

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// referenceGraphs returns one small instance of every gen.ByName family
// plus, where a connectivity-preserving plan exists, a faulted copy with
// port holes — the graphs the reference checks sweep.
func referenceGraphs(t *testing.T, n int) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for i, fam := range gen.FamilyNames {
		g, err := gen.ByName(fam, n, xrand.New(uint64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		out[fam] = g
		plan, err := faults.NewPlan(g, faults.Options{Mode: faults.KillEdges, Count: 3, Seed: uint64(7 + i), KeepConnected: true})
		if err != nil {
			continue // a tree has no removable edge
		}
		h := g.Clone()
		plan.Apply(h)
		out[fam+"/faulted"] = h
	}
	return out
}

// referenceRow derives router x's row from the first-arc sets alone:
// MinPort takes the lowest port of FirstArcs, RunGreedy keeps the
// previous destination's port while it stays in the set.
func referenceRow(g *graph.Graph, apsp *shortest.APSP, x graph.NodeID, pol Policy) []graph.Port {
	row := make([]graph.Port, g.Order())
	prev := graph.NoPort
	for v := range row {
		if graph.NodeID(v) == x {
			continue
		}
		arcs := shortest.FirstArcs(g, apsp, x, graph.NodeID(v))
		low := arcs[0]
		keep := false
		for _, p := range arcs {
			low = min(low, p)
			keep = keep || p == prev
		}
		row[v] = low
		if pol == RunGreedy && keep {
			row[v] = prev
		}
		prev = row[v]
	}
	return row
}

// TestNewMatchesFirstArcsReference pins the row-major build to an
// independent derivation from shortest.FirstArcs over every family,
// both policies, intact and faulted.
func TestNewMatchesFirstArcsReference(t *testing.T) {
	for name, g := range referenceGraphs(t, 100) {
		apsp := shortest.NewAPSPParallel(g, 0)
		for _, pol := range []Policy{MinPort, RunGreedy} {
			s, err := New(g, apsp, pol)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, pol, err)
			}
			for x := 0; x < g.Order(); x++ {
				want := referenceRow(g, apsp, graph.NodeID(x), pol)
				if !reflect.DeepEqual(s.ports[x], want) {
					t.Fatalf("%s/%d: row %d = %v, want %v", name, pol, x, s.ports[x], want)
				}
				if s.bits[x] != encodedRowBits(want, graph.NodeID(x), g.Degree(graph.NodeID(x))) {
					t.Fatalf("%s/%d: bits of row %d disagree with its code", name, pol, x)
				}
			}
		}
	}
}

// TestNewWeightedMatchesFirstArcsReference is the weighted analogue:
// MinPort entry (x,v) is the lowest port of WeightedFirstArcs.
func TestNewWeightedMatchesFirstArcsReference(t *testing.T) {
	for i, fam := range gen.FamilyNames {
		g, err := gen.ByName(fam, 40, xrand.New(uint64(60+i)))
		if err != nil {
			t.Fatal(err)
		}
		w := shortest.RandomWeights(g, 9, xrand.New(uint64(80+i)))
		apsp, err := shortest.NewWeightedAPSPParallel(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWeighted(g, w, apsp, MinPort)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for x := 0; x < g.Order(); x++ {
			for v := 0; v < g.Order(); v++ {
				if x == v {
					continue
				}
				arcs := shortest.WeightedFirstArcs(g, apsp, w, graph.NodeID(x), graph.NodeID(v))
				if got := s.ports[x][v]; got != arcs[0] {
					t.Fatalf("%s: entry (%d,%d) = %d, want lowest of %v", fam, x, v, got, arcs)
				}
			}
		}
	}
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestNewWorkerCountInvariant pins the fan-out: the scheme built on one
// worker and on four is the same, row for row and bit count for bit
// count, for both policies on an intact and a faulted graph.
func TestNewWorkerCountInvariant(t *testing.T) {
	g, err := gen.ByName("random", 300, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	plan, err := faults.NewPlan(h, faults.Options{Mode: faults.KillEdges, Count: 6, Seed: 11, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	plan.Apply(h)
	for name, gr := range map[string]*graph.Graph{"intact": g, "faulted": h} {
		apsp := shortest.NewAPSPParallel(gr, 0)
		for _, pol := range []Policy{MinPort, RunGreedy} {
			var one, four *Scheme
			withProcs(1, func() { one, err = New(gr, apsp, pol) })
			if err != nil {
				t.Fatal(err)
			}
			withProcs(4, func() { four, err = New(gr, apsp, pol) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one.ports, four.ports) || !reflect.DeepEqual(one.bits, four.bits) {
				t.Fatalf("%s/%d: GOMAXPROCS 1 and 4 built different schemes", name, pol)
			}
		}
	}
}

// bridged joins two seeded random graphs on [0,half) and [half,2half)
// by the single edge {0, half}. Two such graphs that share the first
// half agree on every first arc of a router in it (distances through
// the bridge differ by the same constant at every neighbour), so a table
// of one used for the other fails only at routers of the second half.
func bridged(half int, seedA, seedB uint64) *graph.Graph {
	g := graph.New(2 * half)
	for k, seed := range []uint64{seedA, seedB} {
		part := gen.RandomConnected(half, 0.05, xrand.New(seed))
		for _, e := range part.Edges() {
			g.AddEdge(e[0]+graph.NodeID(k*half), e[1]+graph.NodeID(k*half))
		}
	}
	g.AddEdge(0, graph.NodeID(half))
	return g
}

// TestNewInconsistentAPSPLowestRouterError feeds New the table of a
// different graph of the same order. Several claims fail; whatever the
// worker count, the error names the lowest failing router, at its
// lowest failing destination — the pair an independent FirstArcs scan
// finds first.
func TestNewInconsistentAPSPLowestRouterError(t *testing.T) {
	const half = 2 * buildClaim
	g := bridged(half, 1, 2)
	wrong := shortest.NewAPSPParallel(bridged(half, 1, 3), 0)
	want := ""
	lowest, failing := -1, 0
	for x := 0; x < g.Order(); x++ {
		for v := 0; v < g.Order(); v++ {
			if x != v && len(shortest.FirstArcs(g, wrong, graph.NodeID(x), graph.NodeID(v))) == 0 {
				if want == "" {
					want = fmt.Sprintf("table: no shortest first arc %d->%d", x, v)
					lowest = x
				}
				failing++
				break
			}
		}
	}
	if lowest < buildClaim || failing < 2 {
		t.Fatalf("fixture too weak: lowest failing router %d, %d failing routers", lowest, failing)
	}
	for _, pol := range []Policy{MinPort, RunGreedy} {
		for _, procs := range []int{1, 4} {
			var s *Scheme
			var err error
			withProcs(procs, func() { s, err = New(g, wrong, pol) })
			if s != nil || err == nil || err.Error() != want {
				t.Fatalf("policy %d, GOMAXPROCS %d: scheme %v, error %v, want %q", pol, procs, s != nil, err, want)
			}
		}
	}
}

// TestNewRejectsOrderMismatch checks that a table of another order is an
// error, not an index panic.
func TestNewRejectsOrderMismatch(t *testing.T) {
	if _, err := New(gen.Cycle(8), shortest.NewAPSPParallel(gen.Cycle(9), 0), MinPort); err == nil {
		t.Fatal("APSP of order 9 accepted for an 8-vertex graph")
	}
}
