package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func init() {
	Register(Experiment{ID: "E18", Title: "distance backends — beyond-RAM scaling of the all-pairs evaluator", Run: runE18})
}

// scalingLarge extends E18 to the large-n ladder (n up to 32768). Off by
// default so `routelab` and the test suite stay fast; routelab -e18large
// turns it on for the recorded sweep.
var scalingLarge bool

// SetScalingLarge toggles E18's large-n ladder (routelab's -e18large flag
// ends up here). Not safe to call concurrently with running experiments.
func SetScalingLarge(v bool) { scalingLarge = v }

// denseCutoff is the order above which E18 refuses to materialize the
// dense n² table: 16384² int32 entries are already 1 GiB.
const denseCutoff = 16384

// runE18 sweeps the evaluator's two distance backends (dense table and
// per-worker streaming BFS) over growing instances of the random and
// theorem1 families, for the two scheme regimes the paper contrasts
// (tables: s=1, Θ(n log n) local bits; landmark: s<=3, o(n)).
// Both backends must report identical stretch — that equality IS the
// correctness claim, pinned exhaustively by the conformance matrix — so
// the interesting columns are the resident distance rows and bytes
// (deterministic, from DistanceSource.ResidentRows) and the wall time
// (the single machine-dependent column of the suite; every other cell is
// byte-reproducible). Above the dense cutoff the dense backend is
// skipped and the landmark scheme itself is built from streamed BFS rows
// (landmark.NewStreamed), so the whole pipeline — construction,
// evaluation, metering — never allocates an n² object: the Theorem 1
// regime of large n stays reachable on bounded RAM.
func runE18() ([]*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "distance-backend scaling sweep (sampled stretch, per-backend memory/time)",
		Note: "backends agree bit-for-bit on every report (conformance matrix);\n" +
			"rows(1w)/distMiB: resident distance rows and their size at ONE worker — n for dense,\n" +
			"1 for stream; stream adds one row per extra worker. Pinned to one worker so the\n" +
			"table is -workers-independent like every other report. ms is wall time\n" +
			"(machine-dependent; all other columns are deterministic).\n" +
			"n > " + fmt.Sprint(denseCutoff) + " skips dense and builds landmark via NewStreamed.",
		Columns: []string{"graph", "n", "scheme", "backend", "pairs", "stretch(max)", "stretch(mean)", "MEM_local", "rows(1w)", "distMiB", "ms"},
	}
	type wl struct {
		name    string
		build   func() (*graph.Graph, error)
		sample  int
		schemes []string
	}
	workloads := []wl{
		{"random", func() (*graph.Graph, error) {
			return gen.RandomConnected(512, 6.0/512, xrand.New(512*13)), nil
		}, 20000, []string{"tables", "landmark"}},
		{"random", func() (*graph.Graph, error) {
			return gen.RandomConnected(1536, 6.0/1536, xrand.New(1536*13)), nil
		}, 20000, []string{"tables", "landmark"}},
		{"theorem1", func() (*graph.Graph, error) {
			pr, err := core.ChooseParams(1024, 0.5)
			if err != nil {
				return nil, err
			}
			ins, err := core.BuildInstance(pr, 9)
			if err != nil {
				return nil, err
			}
			return ins.CG.G, nil
		}, 20000, []string{"tables", "landmark"}},
	}
	if scalingLarge {
		for _, n := range []int{8192, 20000, 32768} {
			n := n
			schemes := []string{"tables", "landmark"}
			if n > denseCutoff {
				schemes = []string{"landmark"} // tables' own state is Θ(n²)
			}
			workloads = append(workloads, wl{"random", func() (*graph.Graph, error) {
				return gen.RandomConnected(n, 6.0/float64(n), xrand.New(uint64(n)*13)), nil
			}, 200000, schemes})
		}
	}

	for _, w := range workloads {
		g, err := w.build()
		if err != nil {
			return nil, fmt.Errorf("E18 %s: %w", w.name, err)
		}
		n := g.Order()
		denseOK := n <= denseCutoff
		var apsp *shortest.APSP
		if denseOK {
			apsp = shortest.NewAPSPParallel(g, evalOpt.Workers)
		}
		for _, schemeName := range w.schemes {
			var s routing.Scheme
			switch schemeName {
			case "tables":
				if !denseOK {
					continue
				}
				s, err = table.New(g, apsp, table.MinPort)
			case "landmark":
				s, err = landmark.NewStreamed(g, landmark.Options{Seed: uint64(n)}, evalOpt.Workers)
			}
			if err != nil {
				return nil, fmt.Errorf("E18 %s/%s: %w", w.name, schemeName, err)
			}
			mem := evaluate.Memory(g, s, evalOpt)
			for _, mode := range []evaluate.DistMode{evaluate.DistDense, evaluate.DistStream} {
				if mode == evaluate.DistDense && !denseOK {
					continue
				}
				opts := evalOpt
				opts.DistMode = mode
				opts.Sample = w.sample
				opts.Seed = 1
				opts.Distances = nil
				var denseArg *shortest.APSP
				if mode == evaluate.DistDense {
					denseArg = apsp
				}
				src, err := opts.Source(g, denseArg)
				if err != nil {
					return nil, fmt.Errorf("E18 %s/%s/%s: %w", w.name, schemeName, mode, err)
				}
				opts.Distances = src
				start := time.Now()
				rep, err := evaluate.Stretch(g, s, denseArg, opts)
				if err != nil {
					return nil, fmt.Errorf("E18 %s/%s/%s: %w", w.name, schemeName, mode, err)
				}
				elapsed := time.Since(start)
				// Pinned to one worker: ResidentRows(actual workers) would
				// make this report depend on -workers, which no routelab
				// table may do. The note explains the per-worker scaling.
				rows := src.ResidentRows(1)
				t.AddRow(
					w.name, fmt.Sprintf("%d", n), s.Name(), mode.String(),
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
