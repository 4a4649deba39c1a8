package routing_test

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/routing"
	"repro/internal/scheme/table"
)

// Route a message with shortest-path tables and inspect the hop sequence
// — the R = (I, H, P) model of the paper, simulated.
func ExampleRoute() {
	g := gen.Grid2D(3, 3)
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		panic(err)
	}
	hops, err := routing.Route(g, s, 0, 8, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("hops:", routing.PathLen(hops))
	for _, h := range hops {
		fmt.Print(h.Node, " ")
	}
	fmt.Println()
	// Output:
	// hops: 4
	// 0 1 2 5 8
}
