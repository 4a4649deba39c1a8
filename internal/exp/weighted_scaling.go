package exp

import (
	"fmt"
	"time"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func init() {
	Register(Experiment{ID: "E19", Title: "weighted distance backends — beyond-RAM scaling under non-uniform arc costs", Run: runE19})
}

// runE19 is the weighted mirror of E18: it sweeps the evaluator's two
// distance backends — dense weighted table and per-worker streaming
// Dijkstra — over growing random instances under
// symmetric arc costs, for the two scheme regimes E18 contrasts
// (minimum-cost tables: cost stretch 1; landmark: hop guarantee 3, cost
// stretch recorded as measured). Both backends must report identical
// cost stretch — Dijkstra rows are deterministic functions of (graph,
// weights, source), the equality the weighted conformance matrix pins —
// so the interesting columns are again the resident distance rows/bytes
// and wall time. Before this experiment the weighted path silently
// materialized the dense n² table whatever -distmode said; E19 exists to
// record that the weighted metric now scales through the same streaming
// pipeline as the hop metric.
func runE19() ([]*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "weighted backend scaling sweep (sampled cost stretch, per-backend memory/time)",
		Note: "weighted mirror of E18: denominators are Dijkstra rows under symmetric costs\n" +
			"uniform on [1, maxW]; backends agree bit-for-bit (weighted conformance matrix).\n" +
			"rows(1w)/distMiB as in E18 — resident distance rows at ONE worker. ms is wall\n" +
			"time (machine-dependent; every other column is deterministic).",
		Columns: []string{"graph", "n", "maxW", "scheme", "backend", "pairs", "stretch(max)", "stretch(mean)", "MEM_local", "rows(1w)", "distMiB", "ms"},
	}
	for _, n := range []int{512, 1536} {
		g := gen.RandomConnected(n, 6.0/float64(n), xrand.New(uint64(n)*13))
		w := shortest.RandomWeights(g, 16, xrand.New(uint64(n)*29))
		apsp, err := shortest.NewWeightedAPSPParallel(g, w, evalOpt.Workers)
		if err != nil {
			return nil, fmt.Errorf("E19 n=%d: %w", n, err)
		}
		for _, schemeName := range []string{"tables", "landmark"} {
			var s routing.Scheme
			switch schemeName {
			case "tables":
				s, err = table.NewWeighted(g, w, apsp, table.MinPort)
			case "landmark":
				s, err = landmark.NewStreamed(g, landmark.Options{Seed: uint64(n)}, evalOpt.Workers)
			}
			if err != nil {
				return nil, fmt.Errorf("E19 n=%d/%s: %w", n, schemeName, err)
			}
			mem := evaluate.Memory(g, s, evalOpt)
			for _, mode := range []evaluate.DistMode{evaluate.DistDense, evaluate.DistStream} {
				opts := evalOpt
				opts.DistMode = mode
				opts.Sample = 20000
				opts.Seed = 1
				opts.Distances = nil
				var denseArg *shortest.APSP
				if mode == evaluate.DistDense {
					denseArg = apsp
				}
				src, err := opts.SourceFor(g, w, denseArg)
				if err != nil {
					return nil, fmt.Errorf("E19 n=%d/%s/%s: %w", n, schemeName, mode, err)
				}
				opts.Distances = src
				start := time.Now()
				rep, err := evaluate.WeightedStretch(g, s, w, denseArg, opts)
				if err != nil {
					return nil, fmt.Errorf("E19 n=%d/%s/%s: %w", n, schemeName, mode, err)
				}
				elapsed := time.Since(start)
				// Pinned to one worker, like E18: the report must not
				// depend on -workers.
				rows := src.ResidentRows(1)
				t.AddRow(
					"random", fmt.Sprintf("%d", n), "16", s.Name(), mode.String(),
					fmt.Sprintf("%d", rep.Pairs),
					fmt.Sprintf("%.3f", rep.Max), fmt.Sprintf("%.3f", rep.Mean),
					fmt.Sprintf("%d", mem.LocalBits),
					fmt.Sprintf("%d", rows),
					fmt.Sprintf("%.1f", float64(rows)*float64(n)*4/(1<<20)),
					fmt.Sprintf("%d", elapsed.Milliseconds()),
				)
			}
		}
	}
	return []*Table{t}, nil
}
