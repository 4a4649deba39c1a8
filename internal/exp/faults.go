package exp

import (
	"bytes"
	"fmt"

	"repro/internal/evaluate"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func init() {
	Register(Experiment{ID: "E23", Title: "dynamic topology — seeded faults, degraded service, incremental repair", Run: runE23})
}

// faultWorkloads are the E23 graph families: one per structural regime
// the paper's Table 1 distinguishes (sparse random, bounded-degree
// torus, hypercube). Rebuilt per call — fault injection mutates them.
func faultWorkloads() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"random(96,.08)", gen.RandomConnected(96, 0.08, xrand.New(20250807))},
		{"torus 8x8", gen.Torus2D(8, 8)},
		{"hypercube H6", gen.Hypercube(6)},
	}
}

// e23LandmarkSeed seeds every E23 landmark build, rebuilds included.
const e23LandmarkSeed = 7

// runE23 measures the two halves of the dynamic-topology story. Table
// E23a is degraded service: a scheme built on the intact graph keeps
// routing after seeded edge kills (connectivity NOT preserved), and the
// harness classifies every ordered live pair — delivered, detected
// disconnection, or a typed failure (dead-port dominates: stale tables
// fail exactly by walking into a hole; false deliveries must be zero).
// Table E23b is recovery on connectivity-preserving kills: dirty-set
// size, restored delivery and the full re-encode size for both schemes;
// for the table scheme also the rows the repair changed, bit-identity of
// the repaired scheme against a from-scratch rebuild on an identically
// faulted clone, and the size of the generation patch (schemeio delta).
// Landmark has no repair — it is rebuilt by NewStreamed — so those three
// cells read "-". Everything is seeded and deterministic.
func runE23() ([]*Table, error) {
	ta := &Table{
		ID:    "E23a",
		Title: "degraded service — unrepaired scheme on the faulted topology",
		Note: "kills are free to disconnect; false deliveries are impossible by\n" +
			"construction (the simulator walks the real faulted graph).",
		Columns: []string{"graph", "scheme", "kills", "pairs", "disc", "delivery", "detect", "inflation", "dead-port", "other-fail"},
	}
	tb := &Table{
		ID:    "E23b",
		Title: "incremental repair vs from-scratch rebuild (connectivity-preserving kills)",
		Note: "identical = wire bytes of repaired scheme equal the rebuild's;\n" +
			"patch = schemeio generation delta (tables only), full = complete re-encode.",
		Columns: []string{"graph", "scheme", "kills", "dirty", "changed", "identical", "delivery", "stretch(mean)", "patch B", "full B"},
	}

	type schemeCase struct {
		name  string
		build func(g *graph.Graph, apsp *shortest.APSP) (routing.Scheme, error)
	}
	cases := []schemeCase{
		{"tables", func(g *graph.Graph, apsp *shortest.APSP) (routing.Scheme, error) {
			return table.New(g, apsp, table.MinPort)
		}},
		{"landmark", func(g *graph.Graph, _ *shortest.APSP) (routing.Scheme, error) {
			return landmark.NewStreamed(g, landmark.Options{Seed: e23LandmarkSeed}, evalOpt.Workers)
		}},
	}

	// E23a — degraded service under unconstrained kills.
	for _, w := range faultWorkloads() {
		for _, sc := range cases {
			for _, kills := range []int{2, 6} {
				g := w.g.Clone()
				apsp := shortest.NewAPSPParallel(g, evalOpt.Workers)
				s, err := sc.build(g, apsp)
				if err != nil {
					return nil, fmt.Errorf("E23a %s/%s: %w", w.name, sc.name, err)
				}
				pre, err := evaluate.Delivery(g, s, apsp, evalOpt)
				if err != nil {
					return nil, fmt.Errorf("E23a %s/%s pre: %w", w.name, sc.name, err)
				}
				plan, err := faults.NewPlan(g, faults.Options{
					Mode: faults.KillEdges, Count: kills, Seed: 0xe23a, KeepConnected: false,
				})
				if err != nil {
					return nil, fmt.Errorf("E23a %s/%s plan: %w", w.name, sc.name, err)
				}
				plan.Apply(g)
				post, err := evaluate.Delivery(g, s, nil, evalOpt)
				if err != nil {
					return nil, fmt.Errorf("E23a %s/%s post: %w", w.name, sc.name, err)
				}
				if post.FalseDeliver != 0 {
					return nil, fmt.Errorf("E23a %s/%s: %d false deliveries", w.name, sc.name, post.FalseDeliver)
				}
				other := 0
				for r, c := range post.Failures {
					if routing.Reason(r) != routing.ReasonDeadPort {
						other += c
					}
				}
				ta.AddRow(
					w.name, sc.name, fmt.Sprintf("%d", len(plan.Edges)),
					fmt.Sprintf("%d", post.Pairs), fmt.Sprintf("%d", post.Disconnected),
					fmt.Sprintf("%.4f", post.DeliveryRate()), fmt.Sprintf("%.2f", post.DetectionRate()),
					fmt.Sprintf("%.4f", evaluate.Inflation(pre, post)),
					fmt.Sprintf("%d", post.Failures[routing.ReasonDeadPort]), fmt.Sprintf("%d", other),
				)
			}
		}
	}

	// E23b — repair or rebuild, bit-identity, and the patch economy.
	for _, w := range faultWorkloads() {
		for _, sc := range cases {
			for _, kills := range []int{2, 6} {
				work := w.g.Clone()
				apsp := shortest.NewAPSPParallel(work, evalOpt.Workers)
				s, err := sc.build(work, apsp)
				if err != nil {
					return nil, fmt.Errorf("E23b %s/%s: %w", w.name, sc.name, err)
				}
				plan, err := faults.NewPlan(work, faults.Options{
					Mode: faults.KillEdges, Count: kills, Seed: 0xe23b, KeepConnected: true,
				})
				if err != nil {
					return nil, fmt.Errorf("E23b %s/%s plan: %w", w.name, sc.name, err)
				}
				plan.Apply(work)
				dirty := faults.DirtyRoots(apsp, plan.Edges)
				apsp.RefreshRows(work, dirty)

				changed, identical, patchB := "-", "-", "-"
				var fresh []byte // wire bytes of a from-scratch rebuild (tables only)
				switch v := s.(type) {
				case *table.Scheme:
					ch, err := v.Repair(apsp, dirty, table.MinPort)
					if err != nil {
						return nil, fmt.Errorf("E23b %s/%s repair: %w", w.name, sc.name, err)
					}
					changed = fmt.Sprintf("%d", len(ch))
					d, err := schemeio.NewDelta(1, plan.Edges, v, ch)
					if err != nil {
						return nil, fmt.Errorf("E23b %s/%s delta: %w", w.name, sc.name, err)
					}
					blob, err := schemeio.EncodeDelta(work, d)
					if err != nil {
						return nil, fmt.Errorf("E23b %s/%s delta encode: %w", w.name, sc.name, err)
					}
					patchB = fmt.Sprintf("%d", len(blob))
					// Rebuild from scratch on an identically faulted clone:
					// its wire bytes are the repair's bit-identity
					// acceptance bar.
					faulted := w.g.Clone()
					plan.Apply(faulted)
					rebuilt, err := sc.build(faulted, shortest.NewAPSPParallel(faulted, evalOpt.Workers))
					if err != nil {
						return nil, fmt.Errorf("E23b %s/%s rebuild: %w", w.name, sc.name, err)
					}
					encF, err := schemeio.Encode(faulted, rebuilt)
					if err != nil {
						return nil, err
					}
					fresh = encF.Bytes
				case *landmark.Scheme:
					// No landmark repair: rebuild streamed.
					s, err = landmark.NewStreamed(work, landmark.Options{Seed: e23LandmarkSeed}, evalOpt.Workers)
					if err != nil {
						return nil, fmt.Errorf("E23b %s/%s rebuild: %w", w.name, sc.name, err)
					}
				}
				encR, err := schemeio.Encode(work, s)
				if err != nil {
					return nil, err
				}
				if fresh != nil {
					identical = "yes"
					if !bytes.Equal(encR.Bytes, fresh) {
						identical = "NO"
					}
				}
				post, err := evaluate.Delivery(work, s, apsp, evalOpt)
				if err != nil {
					return nil, fmt.Errorf("E23b %s/%s post: %w", w.name, sc.name, err)
				}
				tb.AddRow(
					w.name, sc.name, fmt.Sprintf("%d", len(plan.Edges)),
					fmt.Sprintf("%d", len(dirty)), changed, identical,
					fmt.Sprintf("%.4f", post.DeliveryRate()), fmt.Sprintf("%.4f", post.MeanStretch),
					patchB, fmt.Sprintf("%d", len(encR.Bytes)),
				)
			}
		}
	}
	return []*Table{ta, tb}, nil
}
