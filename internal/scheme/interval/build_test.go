package interval

import (
	"fmt"
	"reflect"
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
