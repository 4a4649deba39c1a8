// Tradeoff: sweep the stretch/memory plane of the paper's Table 1 on one
// network — how much router memory does each stretch budget cost?
//
// The program runs routing tables (s=1), interval routing (s=1), and
// landmark routing with several landmark densities (s<=3), plus the
// specialized schemes where the topology admits them, and prints one line
// per point of the tradeoff.
//
//	go run ./examples/tradeoff [-n 128]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/routing"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func main() {
	n := flag.Int("n", 128, "network order")
	flag.Parse()

	g := gen.RandomConnected(*n, 6.0/float64(*n), xrand.New(7))
	apsp := shortest.NewAPSPParallel(g, 0)
	fmt.Printf("network: n=%d m=%d diameter=%d\n\n", g.Order(), g.Size(), apsp.Diameter())
	fmt.Printf("%-28s %8s %8s %12s %12s\n", "scheme", "s(max)", "s(mean)", "MEM_local", "MEM_global")

	show := func(s routing.Scheme) {
		sr, err := evaluate.Stretch(g, s, apsp, evaluate.Options{})
		if err != nil {
			log.Fatal(err)
		}
		mr := evaluate.Memory(g, s, evaluate.Options{})
		fmt.Printf("%-28s %8.2f %8.2f %12d %12d\n", s.Name(), sr.Max, sr.Mean, mr.LocalBits, mr.GlobalBits)
	}

	tb, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		log.Fatal(err)
	}
	show(tb)

	iv, err := interval.New(g, apsp, interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy})
	if err != nil {
		log.Fatal(err)
	}
	show(iv)

	for _, k := range []int{0, *n / 16, *n / 8, *n / 4} {
		lm, err := landmark.NewStreamed(g, landmark.Options{NumLandmarks: k, Seed: uint64(k) + 3}, 0)
		if err != nil {
			log.Fatal(err)
		}
		lmName := fmt.Sprintf("landmark(|L|=%d)", lm.NumLandmarks())
		sr, err := evaluate.Stretch(g, lm, apsp, evaluate.Options{})
		if err != nil {
			log.Fatal(err)
		}
		mr := evaluate.Memory(g, lm, evaluate.Options{})
		fmt.Printf("%-28s %8.2f %8.2f %12d %12d\n", lmName, sr.Max, sr.Mean, mr.LocalBits, mr.GlobalBits)
	}

	fmt.Println("\nTable 1's shape: memory is Theta(n log n) per router while s < 2 (and")
	fmt.Println("Theorem 1 proves no universal scheme can do better), then falls once the")
	fmt.Println("stretch budget reaches 3.")
}
