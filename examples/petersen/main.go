// Petersen: reproduce Figure 1 of the paper — a 5×5 shortest-path matrix
// of constraints on the Petersen graph — and verify exhaustively that
// every entry is forced: whatever routing function a scheme instals, if
// it routes along shortest paths it MUST answer exactly these ports.
//
//	go run ./examples/petersen
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
)

func main() {
	g := gen.Petersen()
	apsp := shortest.NewAPSPParallel(g, 0)

	fmt.Println("Petersen graph: 10 vertices, 15 edges, strongly regular (10,3,0,1).")
	fmt.Printf("unique shortest paths between all pairs: %v\n",
		core.UniqueShortestPaths(g, apsp))
	fmt.Printf("all ordered pairs have a forced first arc at stretch 1: %v\n\n",
		core.AllPairsForced(g, apsp, 1.0))

	// Figure 1's sets: constrained vertices on the outer cycle, targets on
	// the pentagram. (The paper's concrete labels differ; by strong
	// regularity any disjoint choice works.)
	A := []graph.NodeID{0, 1, 2, 3, 4}
	B := []graph.NodeID{5, 6, 7, 8, 9}
	m, err := core.ConstraintMatrixOf(g, apsp, A, B, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matrix of constraints (entry = forced port of a_i toward b_j):")
	fmt.Println(headered(m))

	// The executable content of Definition 1: build ANY shortest-path
	// routing function and check it answers exactly the matrix.
	tables, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		log.Fatal(err)
	}
	rebuilt, err := core.Rebuild(tables, A, B, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshortest-path routing tables answer the same matrix: %v\n", rebuilt.Equal(m))

	// And the routes themselves.
	fmt.Println("\nsample forced routes:")
	for _, pair := range [][2]graph.NodeID{{0, 7}, {2, 9}, {4, 5}} {
		hops, err := routing.Route(g, tables, pair[0], pair[1], 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d -> %d via port %d:", pair[0], pair[1], hops[0].Port)
		for _, h := range hops {
			fmt.Printf(" %d", h.Node)
		}
		fmt.Println()
	}
}

func headered(m *core.Matrix) string {
	s := "      b1 b2 b3 b4 b5\n"
	for i := 0; i < m.P; i++ {
		s += fmt.Sprintf("  a%d |", i+1)
		for j := 0; j < m.Q; j++ {
			s += fmt.Sprintf(" %d ", m.At(i, j)+1)
		}
		if i < m.P-1 {
			s += "\n"
		}
	}
	return s
}
