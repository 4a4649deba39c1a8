package exp

import (
	"fmt"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/routing"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func init() {
	Register(Experiment{ID: "E15", Title: "header sizes — what the model's 'unbounded headers' cost in practice", Run: runE15})
}

// runE15 prices the headers of each scheme over all routes. The paper's
// MEM definition excludes headers ("we allow headers to be of unbounded
// size"); this experiment shows the exclusion is benign for table and
// interval routing (Θ(log n) headers) but does real work for the
// landmark scheme, whose address-carrying headers embed a source route —
// memory the routers would otherwise hold.
func runE15() ([]*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "header bits per scheme (all pairs, every hop)",
		Columns: []string{"n", "scheme", "max header bits", "mean header bits", "MEM_local (router bits)"},
	}
	for _, n := range []int{64, 128} {
		g := gen.RandomConnected(n, 6.0/float64(n), xrand.New(uint64(n)))
		apsp := shortest.NewAPSPParallel(g, evalOpt.Workers)
		tb, err := table.New(g, apsp, table.MinPort)
		if err != nil {
			return nil, err
		}
		iv, err := interval.New(g, apsp, interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy})
		if err != nil {
			return nil, err
		}
		lm, err := landmark.NewStreamed(g, landmark.Options{Seed: uint64(n) + 1}, evalOpt.Workers)
		if err != nil {
			return nil, err
		}
		for _, s := range []routing.Scheme{tb, iv, lm} {
			hr, err := routing.MeasureHeaders(g, s)
			if err != nil {
				return nil, err
			}
			mr := evaluate.Memory(g, s, evalOpt)
			t.AddRow(
				fmt.Sprintf("%d", n), s.Name(),
				fmt.Sprintf("%d", hr.MaxBits),
				fmt.Sprintf("%.1f", hr.MeanBits),
				fmt.Sprintf("%d", mr.LocalBits),
			)
		}
	}
	return []*Table{t}, nil
}
