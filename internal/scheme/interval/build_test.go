package interval

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// selectionOracle is the per-destination assignment New's row kernel
// replaced, kept as its oracle: destinations in cyclic label order from
// just after x's own label, each reading its own distance row d(·,v),
// RunGreedy keeping the previous port while it stays a shortest first
// arc, else the lowest live port that is one. It returns the rows by
// label, or the error of the first pair without a first arc.
func selectionOracle(g *graph.Graph, apsp *shortest.APSP, label []int32, pol Policy) ([][]graph.Port, error) {
	n := g.Order()
	invlab := make([]graph.NodeID, n)
	for v, lab := range label {
		invlab[lab] = graph.NodeID(v)
	}
	rows := make([][]graph.Port, n)
	for x := 0; x < n; x++ {
		arcs := g.Arcs(graph.NodeID(x))
		row := make([]graph.Port, n)
		prev := graph.NoPort
		for t := 0; t < n; t++ {
			lab := (int(label[x]) + 1 + t) % n
			v := invlab[lab]
			if int(v) == x {
				continue
			}
			rowV := apsp.Row(v)
			ok := func(p graph.Port) bool {
				w := arcs[p-1]
				return w != graph.DeadEnd && rowV[w]+1 == rowV[x]
			}
			chosen := graph.NoPort
			if pol == RunGreedy && prev != graph.NoPort && ok(prev) {
				chosen = prev
			}
			for p := graph.Port(1); chosen == graph.NoPort && int(p) <= len(arcs); p++ {
				if ok(p) {
					chosen = p
				}
			}
			if chosen == graph.NoPort {
				return nil, fmt.Errorf("interval: no shortest first arc %d->%d", x, v)
			}
			row[lab] = chosen
			prev = chosen
		}
		rows[x] = row
	}
	return rows, nil
}

// countIntervalsOracle is the per-port interval count the one-pass
// countIntervals replaced: for every port, a scan of the whole row.
func countIntervalsOracle(row []graph.Port, own int32, deg int) []int {
	counts := make([]int, deg)
	for k := 0; k < deg; k++ {
		p := graph.Port(k + 1)
		runs, inRun, first, last := 0, false, -1, -1
		for t := range row {
			if int32(t) == own {
				continue
			}
			if first == -1 {
				first = t
			}
			last = t
			if row[t] == p {
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs > 1 && first != -1 && row[first] == p && row[last] == p {
			runs--
		}
		counts[k] = runs
	}
	return counts
}

// TestNewMatchesSelectionOracle pins New (the shared first-arc kernel
// plus the cyclic RunGreedy pass and the one-pass interval count) to
// selectionOracle and countIntervalsOracle over every family at n=64 and
// 300, identity and DFS labels, both policies, plain and with edges
// removed; and its error text to the oracle's on the all-pairs table of
// another graph.
func TestNewMatchesSelectionOracle(t *testing.T) {
	check := func(name string, g *graph.Graph, apsp *shortest.APSP, labels []int32, pol Policy) {
		t.Helper()
		label := labels
		if label == nil {
			label = make([]int32, g.Order())
			for v := range label {
				label[v] = int32(v)
			}
		}
		want, wantErr := selectionOracle(g, apsp, label, pol)
		s, err := New(g, apsp, Options{Labels: labels, Policy: pol})
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s/%d: error %v, oracle %v", name, pol, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(s.assign, want) {
			t.Fatalf("%s/%d: assignment differs from the oracle", name, pol)
		}
		for x, row := range want {
			if c := countIntervalsOracle(row, label[x], g.Degree(graph.NodeID(x))); !slices.Equal(s.ivals[x], c) {
				t.Fatalf("%s/%d: intervals of %d = %v, oracle %v", name, pol, x, s.ivals[x], c)
			}
		}
	}
	for _, n := range []int{64, 300} {
		for i, fam := range gen.FamilyNames {
			g, err := gen.ByName(fam, n, xrand.New(uint64(300+i)))
			if err != nil {
				t.Fatal(err)
			}
			graphs := map[string]*graph.Graph{fmt.Sprintf("%s/%d", fam, n): g}
			plan, err := faults.NewPlan(g, faults.Options{Mode: faults.KillEdges, Count: max(1, g.Size()/12), Seed: uint64(7 + i), KeepConnected: true})
			if err == nil {
				h := g.Clone()
				plan.Apply(h)
				graphs[fmt.Sprintf("%s/%d/faulted", fam, n)] = h
			}
			for name, gr := range graphs {
				apsp := shortest.NewAPSPParallel(gr, 0)
				for _, pol := range []Policy{MinPort, RunGreedy} {
					check(name, gr, apsp, nil, pol)
					check(name+"/dfs", gr, apsp, DFSLabels(gr), pol)
				}
			}
		}
	}
	g := gen.RandomConnected(80, 0.08, xrand.New(1))
	wrong := shortest.NewAPSPParallel(gen.RandomConnected(80, 0.08, xrand.New(2)), 0)
	if _, err := selectionOracle(g, wrong, DFSLabels(g), RunGreedy); err == nil {
		t.Fatal("fixture too weak: the wrong table admits a first arc everywhere")
	}
	for _, pol := range []Policy{MinPort, RunGreedy} {
		check("tampered/dfs", g, wrong, DFSLabels(g), pol)
	}
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestNewWorkerCountInvariant pins the fan-out: the scheme built on one
// worker and on four is the same — assignment, interval counts and bits
// — for both policies and both labelings on an intact and a faulted
// graph, and the table of another graph fails with the oracle's error.
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
		for _, labels := range [][]int32{nil, DFSLabels(gr)} {
			for _, pol := range []Policy{MinPort, RunGreedy} {
				opt := Options{Labels: labels, Policy: pol}
				var one, four *Scheme
				withProcs(1, func() { one, err = New(gr, apsp, opt) })
				if err != nil {
					t.Fatal(err)
				}
				withProcs(4, func() { four, err = New(gr, apsp, opt) })
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(one.assign, four.assign) || !reflect.DeepEqual(one.ivals, four.ivals) || !slices.Equal(one.bits, four.bits) {
					t.Fatalf("%s/dfs=%v/%d: GOMAXPROCS 1 and 4 built different schemes", name, labels != nil, pol)
				}
			}
		}
	}
	// Routers below half agree with the other graph's table on every
	// first arc, so the lowest failing router sits past the first claims.
	const half = 2 * buildClaim
	bg := bridged(half, 1, 2)
	wrong := shortest.NewAPSPParallel(bridged(half, 1, 3), 0)
	_, want := selectionOracle(bg, wrong, DFSLabels(bg), RunGreedy)
	var x, v int
	if want == nil {
		t.Fatal("fixture too weak: the wrong table admits a first arc everywhere")
	}
	if _, err := fmt.Sscanf(want.Error(), "interval: no shortest first arc %d->%d", &x, &v); err != nil || x < half {
		t.Fatalf("fixture too weak: oracle error %v", want)
	}
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() { _, err = New(bg, wrong, Options{Labels: DFSLabels(bg), Policy: RunGreedy}) })
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("GOMAXPROCS %d: wrong table: error %v, oracle %v", procs, err, want)
		}
	}
}

// bridged joins two seeded random graphs on [0,half) and [half,2half)
// by the single edge {0, half}. Two such graphs that share the first
// half agree on every first arc of a router in it, so a table of one
// used for the other fails only at routers of the second half.
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

// TestCountIntervalsMatchesOracle compares countIntervals with the
// per-port scan on random rows, with NoPort holes (as a decoded row may
// carry) and the wildcard own label at every position.
func TestCountIntervalsMatchesOracle(t *testing.T) {
	r := xrand.New(77)
	for i := 0; i < 3000; i++ {
		n, deg := 1+r.Intn(12), 1+r.Intn(4)
		row := make([]graph.Port, n)
		for v := range row {
			row[v] = graph.Port(r.Intn(deg + 1)) // 0 = NoPort
		}
		for own := int32(0); own < int32(n); own++ {
			if got, want := countIntervals(row, own, deg), countIntervalsOracle(row, own, deg); !slices.Equal(got, want) {
				t.Fatalf("row %v own %d: %v, oracle %v", row, own, got, want)
			}
		}
	}
}
