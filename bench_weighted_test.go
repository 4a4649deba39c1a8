// Weighted-kernel benchmarks: the Dijkstra hot loops the weighted metric
// funnels through — single-row traversal with caller-owned scratch,
// weighted all-pairs table construction (serial and worker-pool), and
// the weighted streaming evaluator that composes them. CI archives these
// as BENCH_weighted.json (see DESIGN.md "Bench trajectory") next to the
// core and evaluator suites (-count 5: benchjson folds the repeats into
// per-metric medians):
//
//	go test -run '^$' -bench '^(BenchmarkDijkstra|BenchmarkWeightedAPSP|BenchmarkWeightedEvaluateStreaming)$' \
//	    -benchtime 1x -count 5 -timeout 30m . | go run ./cmd/benchjson > BENCH_weighted.json
//
// The graphs are the same seeded random connected family the core suite
// sweeps, under symmetric integer costs uniform on [1, 16].
package repro

import (
	"fmt"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func benchWeights(g *graph.Graph) shortest.Weights {
	return shortest.RandomWeights(g, 16, xrand.New(2))
}

// BenchmarkDijkstra measures one single-source weighted traversal with
// caller-owned scratch — the per-row cost of the weighted streaming
// backends, the Dijkstra analogue of BenchmarkBFS. The scratch is
// warmed outside the timer on a source other than the first timed one.
func BenchmarkDijkstra(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		g := benchGraph(n)
		w := benchWeights(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			dist, pq := shortest.DijkstraInto(g, w, graph.NodeID(n-1), nil, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist, pq = shortest.DijkstraInto(g, w, graph.NodeID(i%n), dist, pq)
			}
			_ = dist
		})
	}
}

// dijkstraPerRowTable builds the n×n weighted table one DijkstraInto
// per row into one contiguous block, reusing the heap across sources:
// the serial loop one NewWeightedAPSPParallel worker runs, kept here
// only as BenchmarkWeightedAPSP's serial arm.
func dijkstraPerRowTable(g *graph.Graph, w shortest.Weights) [][]int32 {
	g.Freeze()
	n := g.Order()
	rows := make([][]int32, n)
	block := make([]int32, n*n)
	var pq shortest.DijkstraHeap
	for u := range rows {
		rows[u], pq = shortest.DijkstraInto(g, w, graph.NodeID(u), block[u*n:(u+1)*n:(u+1)*n], pq)
	}
	return rows
}

// BenchmarkWeightedAPSP measures weighted all-pairs table construction,
// serial (dijkstraPerRowTable, one goroutine) and worker-pool
// (NewWeightedAPSPParallel on every core), mirroring BenchmarkAPSP.
func BenchmarkWeightedAPSP(b *testing.B) {
	for _, n := range []int{512, 2048} {
		g := benchGraph(n)
		w := benchWeights(g)
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dijkstraPerRowTable(g, w)
			}
		})
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shortest.NewWeightedAPSPParallel(g, w, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWeightedEvaluateStreaming measures the weighted streaming
// all-pairs evaluator — per-worker Dijkstra row recomputation under
// minimum-cost tables, the workload of the E19 sweep. The sampled
// sub-benchmark claims every source row so the row recomputation cost
// stays fully represented while the wall time stays CI-friendly.
func BenchmarkWeightedEvaluateStreaming(b *testing.B) {
	const n = 2048
	g := benchGraph(n)
	w := benchWeights(g)
	s, err := table.NewWeighted(g, w, nil, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		sample int
	}{
		{"sampled256k", 1 << 18},
		{"exhaustive", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			opt := evaluate.Options{DistMode: evaluate.DistStream, Sample: bc.sample, Seed: 1}
			for i := 0; i < b.N; i++ {
				rep, err := evaluate.WeightedStretch(g, s, w, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Pairs == 0 {
					b.Fatal("no pairs measured")
				}
			}
		})
	}
}
