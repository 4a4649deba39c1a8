// Repository-level benchmarks: one benchmark per paper artifact
// (Table 1, Figure 1, Equations 1–2, Lemmas 1–2, Theorem 1, and the
// quantitative prose claims of Section 1), each driving the same
// experiment code as the routelab CLI, plus micro-benchmarks for the
// machinery the experiments are built from.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report, besides ns/op, custom metrics that
// carry the reproduced quantity (bits per router, class counts, ...), so
// `bench_output.txt` doubles as the numeric record for EXPERIMENTS.md.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// runExperiment drives a registered experiment once per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one bench per paper artifact (see DESIGN.md experiment index) ---

// BenchmarkTable1MemoryVsStretch regenerates the empirical analogue of
// the paper's Table 1 (experiment E1).
func BenchmarkTable1MemoryVsStretch(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkFigure1Petersen regenerates Figure 1 (experiment E2).
func BenchmarkFigure1Petersen(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkEq1EnumerateCanonical regenerates the worked example 3M23
// (experiment E3).
func BenchmarkEq1EnumerateCanonical(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkEq2ConstraintGraphs regenerates the seven graphs of
// constraints (experiment E4).
func BenchmarkEq2ConstraintGraphs(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkTheorem1LowerBound regenerates the headline Theorem 1 sweep
// (experiment E5).
func BenchmarkTheorem1LowerBound(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkLemma1Counting regenerates the Lemma 1 counting check
// (experiment E6).
func BenchmarkLemma1Counting(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkHypercubeEcube regenerates the Section 1 hypercube claim
// (experiment E7).
func BenchmarkHypercubeEcube(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkCompleteGraphLabelings regenerates the Section 1 complete
// graph claim (experiment E8).
func BenchmarkCompleteGraphLabelings(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkIntervalRouting regenerates the Section 1 interval-routing
// claims (experiment E9).
func BenchmarkIntervalRouting(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkLandmarkTradeoff regenerates the large-stretch rows of Table 1
// (experiment E10).
func BenchmarkLandmarkTradeoff(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkShortestPathLowerBound regenerates the stretch-1 regime
// (experiment E11).
func BenchmarkShortestPathLowerBound(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkSpannerTradeoff regenerates the spanner size-vs-stretch table
// (experiment E12, the substrate of reference [11]).
func BenchmarkSpannerTradeoff(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkForcednessCensus regenerates the forced-pair census
// (experiment E13).
func BenchmarkForcednessCensus(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkOracleHierarchy regenerates the k-level stretch/state sweep
// (experiment E14, Table 1's middle rows).
func BenchmarkOracleHierarchy(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkHeaderSizes regenerates the header pricing table (experiment
// E15, the cost of the model's unbounded headers).
func BenchmarkHeaderSizes(b *testing.B) { runExperiment(b, "E15") }

// BenchmarkOptimalIntervalRouting regenerates the exhaustive labeling
// table (experiment E16, reference [5]).
func BenchmarkOptimalIntervalRouting(b *testing.B) { runExperiment(b, "E16") }

// BenchmarkWeightedTables regenerates the non-uniform-cost table
// (experiment E17, the Table 1 comments' weighted regime).
func BenchmarkWeightedTables(b *testing.B) { runExperiment(b, "E17") }

// BenchmarkEvaluate measures the concurrent all-pairs stretch evaluator
// on a Theorem-1-scale instance (the n = 1024 padded constraint graph
// with shortest-path tables): all n(n-1) ordered pairs are routed per
// iteration. The workers=K/workers=1 time ratio is the parallel speedup
// on this machine; exhaustive reports are bit-identical across the
// sub-benchmarks by construction.
func BenchmarkEvaluate(b *testing.B) {
	pr, err := core.ChooseParams(1024, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ins, err := core.BuildInstance(pr, 9)
	if err != nil {
		b.Fatal(err)
	}
	g := ins.CG.G
	apsp := shortest.NewAPSPParallel(g, 0)
	s, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			for i := 0; i < b.N; i++ {
				rep, err := evaluate.Stretch(g, s, apsp, evaluate.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				pairs = rep.Pairs
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkEvaluateStreaming measures the beyond-RAM distance backend
// on the same instance as BenchmarkEvaluate: stream recomputes each
// claimed row by per-worker BFS (O(workers·n) distance memory). The
// reports are bit-identical to the dense sub-benchmarks — the
// time/memory tradeoff is the entire difference, and its trajectory is
// archived by CI as BENCH_evaluate.json (see DESIGN.md).
func BenchmarkEvaluateStreaming(b *testing.B) {
	pr, err := core.ChooseParams(1024, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ins, err := core.BuildInstance(pr, 9)
	if err != nil {
		b.Fatal(err)
	}
	g := ins.CG.G
	s, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("stream/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			opt := evaluate.Options{Workers: workers, DistMode: evaluate.DistStream}
			var rows int
			for i := 0; i < b.N; i++ {
				rep, err := evaluate.Stretch(g, s, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Pairs == 0 {
					b.Fatal("no pairs measured")
				}
				osrc, err := opt.Source(g, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows = osrc.ResidentRows(workers)
			}
			b.ReportMetric(float64(rows), "residentrows")
		})
	}
}

// BenchmarkEvaluateSampled measures the deterministic sampling mode: the
// same instance as BenchmarkEvaluate at 1% pair coverage, the regime that
// makes graphs far beyond exhaustive n² reach measurable.
func BenchmarkEvaluateSampled(b *testing.B) {
	pr, err := core.ChooseParams(1024, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ins, err := core.BuildInstance(pr, 9)
	if err != nil {
		b.Fatal(err)
	}
	g := ins.CG.G
	apsp := shortest.NewAPSPParallel(g, 0)
	s, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	n := g.Order()
	opt := evaluate.Options{Sample: n * (n - 1) / 100, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evaluate.Stretch(g, s, apsp, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateMemory measures the worker-pool router metering on the
// same instance (LocalBits encodes a table row per router).
func BenchmarkEvaluateMemory(b *testing.B) {
	pr, err := core.ChooseParams(1024, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ins, err := core.BuildInstance(pr, 9)
	if err != nil {
		b.Fatal(err)
	}
	s, err := table.New(ins.CG.G, nil, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluate.Memory(ins.CG.G, s, evaluate.Options{})
	}
}

// --- headline numbers as custom bench metrics ---

// BenchmarkTheorem1PerRouterBits reports the Theorem 1 quantities for
// n = 1024, eps = 0.5 as bench metrics: lower-bound, measured and upper
// bits per constrained router.
func BenchmarkTheorem1PerRouterBits(b *testing.B) {
	pr, err := core.ChooseParams(1024, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	var lb, measured, upper float64
	for i := 0; i < b.N; i++ {
		ins, err := core.BuildInstance(pr, 9)
		if err != nil {
			b.Fatal(err)
		}
		bound := core.LowerBound(pr)
		s, err := table.New(ins.CG.G, nil, table.MinPort)
		if err != nil {
			b.Fatal(err)
		}
		lb = bound.PerRouter
		upper = bound.UpperPerNode
		measured = float64(routing.SumBitsOver(s, ins.CG.A)) / float64(pr.P)
	}
	b.ReportMetric(lb, "LBbits/router")
	b.ReportMetric(measured, "measuredbits/router")
	b.ReportMetric(upper, "upperbits/router")
}

// --- micro-benchmarks for the substrates ---

func benchGraph(n int) *graph.Graph {
	return gen.RandomConnected(n, 8.0/float64(n), xrand.New(1))
}

func BenchmarkTableBuild512(b *testing.B) {
	g := benchGraph(512)
	apsp := shortest.NewAPSPParallel(g, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.New(g, apsp, table.MinPort); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntervalBuild512(b *testing.B) {
	g := benchGraph(512)
	apsp := shortest.NewAPSPParallel(g, 0)
	labels := interval.DFSLabels(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interval.New(g, apsp, interval.Options{Labels: labels, Policy: interval.RunGreedy}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLandmarkBuild512(b *testing.B) {
	g := benchGraph(512)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := landmark.NewStreamed(g, landmark.Options{Seed: uint64(i)}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalize2x5(b *testing.B) {
	m := core.RandomMatrix(2, 5, 3, xrand.New(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Canonicalize()
	}
}

func BenchmarkEnumerate3M23(b *testing.B) {
	b.ReportAllocs()
	var classes int
	for i := 0; i < b.N; i++ {
		classes = len(core.Enumerate(3, 2, 3))
	}
	b.ReportMetric(float64(classes), "classes")
}

func BenchmarkConstraintGraphBuild(b *testing.B) {
	m := core.RandomMatrix(16, 256, 12, xrand.New(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildConstraintGraph(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem1Instance1024(b *testing.B) {
	pr, err := core.ChooseParams(1024, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildInstance(pr, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermutationRank(b *testing.B) {
	perm := xrand.New(6).Perm(255)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coding.RankPermutation(perm)
	}
}

// BenchmarkTableRowEncode times AppendPortRowCode, the row code a
// decoded delta re-encodes through, on one reused writer.
func BenchmarkTableRowEncode(b *testing.B) {
	const n = 1024
	g := benchGraph(n)
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]graph.Port, n)
	for x := range rows {
		rows[x] = s.RowCopy(graph.NodeID(x))
	}
	w := coding.NewBitWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := graph.NodeID(i % n)
		w.Reset()
		table.AppendPortRowCode(w, rows[x], x, g.Degree(x))
	}
}
