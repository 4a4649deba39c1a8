// Interval: the interval routing scheme of references [14,15] — the
// paper's canonical example of a universal compact routing scheme — on
// the graph families Section 1 singles out: trees, outerplanar graphs and
// unit circular-arc graphs support ~1 interval per arc (O(d log n) bits),
// while adversarial topologies need many intervals.
//
//	go run ./examples/interval
package main

import (
	"fmt"
	"log"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/tree"
	"repro/internal/xrand"
)

func main() {
	r := xrand.New(123)

	fmt.Printf("%-24s %6s %8s %10s %12s %10s\n",
		"graph", "n", "k-IRS", "intervals", "MEM_local", "stretch")
	families := []struct {
		name   string
		g      *graph.Graph
		useDFS bool
	}{
		{"tree", gen.RandomTree(120, r.Split()), true},
		{"caterpillar", gen.Caterpillar(60, 60), true},
		{"outerplanar", gen.MaximalOuterplanar(120, r.Split()), false},
		{"unit-interval", gen.UnitInterval(120, 0.7, r.Split()), false},
		{"unit-circular-arc", gen.UnitCircularArc(120, 0.04, r.Split()), false},
		{"random (adversarial)", gen.RandomConnected(120, 0.06, r.Split()), false},
	}
	for _, f := range families {
		var labels []int32
		if f.useDFS {
			labels = interval.DFSLabels(f.g)
		}
		s, err := interval.New(f.g, nil, interval.Options{Labels: labels, Policy: interval.RunGreedy})
		if err != nil {
			log.Fatal(err)
		}
		sr, err := evaluate.Stretch(f.g, s, nil, evaluate.Options{})
		if err != nil {
			log.Fatal(err)
		}
		mr := evaluate.Memory(f.g, s, evaluate.Options{})
		fmt.Printf("%-24s %6d %8d %10d %12d %10.2f\n",
			f.name, f.g.Order(), s.MaxIntervalsPerArc(), s.TotalIntervals(), mr.LocalBits, sr.Max)
	}

	// The dedicated tree scheme: exactly one interval per arc by DFS
	// construction, O(d log n) bits as the paper's Section 1 states.
	g := gen.RandomTree(120, r.Split())
	ts, err := tree.New(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	mr := evaluate.Memory(g, ts, evaluate.Options{})
	fmt.Printf("\ndedicated tree 1-IRS on a fresh 120-vertex tree: MEM_local=%d bits, MEM_global=%d bits\n",
		mr.LocalBits, mr.GlobalBits)
	fmt.Println("(matches the acyclic-graphs row of the paper's Table 1: O(d log n) per router)")
}
