// Hierarchy: walk the full memory/stretch curve of the paper's Table 1
// on one network, from the Θ(n log n) bits of stretch-1 tables (optimal
// below stretch 2, by Theorem 1) through the stretch-3 landmark scheme to
// k-level hierarchies with stretch 2k-1 and ~k·n^(1/k) entries per node.
//
//	go run ./examples/hierarchy [-n 256]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func main() {
	n := flag.Int("n", 256, "network order")
	flag.Parse()

	g := gen.RandomConnected(*n, 6.0/float64(*n), xrand.New(11))
	apsp := shortest.NewAPSPParallel(g, 0)
	fmt.Printf("network: n=%d m=%d diameter=%d\n\n", g.Order(), g.Size(), apsp.Diameter())
	fmt.Printf("%-26s %14s %14s %16s\n", "structure", "stretch bound", "worst router", "measured stretch")

	// Stretch 1: full routing tables.
	tb, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		log.Fatal(err)
	}
	sr, err := evaluate.Stretch(g, tb, apsp, evaluate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mr := evaluate.Memory(g, tb, evaluate.Options{})
	fmt.Printf("%-26s %14s %13db %16.2f\n", "routing tables", "1", mr.LocalBits, sr.Max)

	// Stretch <= 3: the landmark ROUTING scheme (k = 2 of the hierarchy).
	lm, err := landmark.NewStreamed(g, landmark.Options{Seed: 5}, 0)
	if err != nil {
		log.Fatal(err)
	}
	sr, err = evaluate.Stretch(g, lm, apsp, evaluate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mr = evaluate.Memory(g, lm, evaluate.Options{})
	fmt.Printf("%-26s %14s %13db %16.2f\n", "landmark routing (k=2)", "3", mr.LocalBits, sr.Max)

	// k >= 2: the distance-oracle hierarchy (state shrinks with k).
	for _, k := range []int{2, 3, 4, 5} {
		o, err := oracle.New(g, apsp, oracle.Options{K: k, Seed: uint64(k)})
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		maxBits := 0
		for u := 0; u < *n; u++ {
			if b := o.LocalBits(graph.NodeID(u)); b > maxBits {
				maxBits = b
			}
			for v := 0; v < *n; v++ {
				if u == v {
					continue
				}
				est := o.Query(graph.NodeID(u), graph.NodeID(v))
				if s := float64(est) / float64(apsp.Dist(graph.NodeID(u), graph.NodeID(v))); s > worst {
					worst = s
				}
			}
		}
		fmt.Printf("%-26s %14d %13db %16.2f\n",
			fmt.Sprintf("oracle hierarchy (k=%d)", k), 2*k-1, maxBits, worst)
	}

	fmt.Println("\nthe curve of the paper's Table 1: state per router collapses as the")
	fmt.Println("stretch budget grows — and Theorem 1 proves the top row (s < 2) is stuck")
	fmt.Println("at Theta(n log n) bits no matter how clever the scheme.")
}
