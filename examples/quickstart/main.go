// Quickstart: build a network, install two universal routing schemes,
// route a few messages, and compare their memory requirements — the
// MEM_local / MEM_global quantities the paper is about.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func main() {
	// A random connected network of 80 routers.
	g := gen.RandomConnected(80, 0.07, xrand.New(42))
	apsp := shortest.NewAPSPParallel(g, 0)
	fmt.Printf("network: n=%d routers, m=%d links, diameter=%d\n\n",
		g.Order(), g.Size(), apsp.Diameter())

	// Scheme 1: full shortest-path routing tables (stretch 1, the memory
	// hog that Theorem 1 proves unavoidable below stretch 2).
	tables, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		log.Fatal(err)
	}

	// Scheme 2: landmark routing (stretch <= 3, sublinear state).
	lm, err := landmark.NewStreamed(g, landmark.Options{Seed: 1}, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Route a message under both schemes.
	src, dst := graph.NodeID(3), graph.NodeID(71)
	for _, s := range []routing.Scheme{tables, lm} {
		hops, err := routing.Route(g, s, src, dst, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %d -> %d: %d hops (distance %d):",
			s.Name(), src, dst, routing.PathLen(hops), apsp.Dist(src, dst))
		for _, h := range hops {
			fmt.Printf(" %d", h.Node)
		}
		fmt.Println()
	}
	fmt.Println()

	// Compare stretch and memory over ALL pairs.
	for _, s := range []routing.Scheme{tables, lm} {
		sr, err := evaluate.Stretch(g, s, apsp, evaluate.Options{})
		if err != nil {
			log.Fatal(err)
		}
		mr := evaluate.Memory(g, s, evaluate.Options{})
		fmt.Printf("%-16s stretch max=%.2f mean=%.2f | MEM_local=%d bits MEM_global=%d bits\n",
			s.Name(), sr.Max, sr.Mean, mr.LocalBits, mr.GlobalBits)
	}
	fmt.Println("\nthe tradeoff of the paper's Table 1: below stretch 2 you pay Theta(n log n)")
	fmt.Println("bits at some router (Theorem 1); at stretch 3 the landmark scheme escapes it.")
}
