package exp

import (
	"fmt"
	"reflect"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/ecube"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/scheme/tree"
	"repro/internal/schemeio"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func init() {
	Register(Experiment{ID: "E20", Title: "scheme persistence codec — serialized bits vs MEM under the fixed coding strategy", Run: runE20})
}

// runE20 cross-checks the paper's central quantity — the bits a router
// must store — against an encoding that actually exists: every scheme
// is serialized by the schemeio wire codec, decoded back, verified to
// route bit-identically (evaluation reports must match exactly; any
// divergence fails the experiment), and the serialized sizes are
// tabulated next to the coding-strategy stand-in (MEM_local/MEM_global
// from LocalBits) and Table 1's asymptotic row for the scheme. wire(x)
// is the per-router payload; the remainder of the blob is shared
// sections (header, label permutations, landmark sets, address paths —
// header material the paper's model leaves free).
func runE20() ([]*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "serialized scheme bits vs LocalBits (wire codec cross-check)",
		Note: "roundtrip=ok certifies the decoded scheme's evaluation report is bit-identical\n" +
			"to the built scheme's. max wire(x) / MEM_local compare per-router serialized bits\n" +
			"with the coding-strategy meter; total includes shared sections and the header.",
		Columns: []string{"graph", "n", "scheme", "stretch(max)", "MEM_local", "max wire(x)", "MEM_global", "wire total(b)", "bytes", "asymptotic", "roundtrip"},
	}
	type cell struct {
		scheme routing.Scheme
		g      *graph.Graph
		asym   string
		w      shortest.Weights // non-nil: verify under the weighted metric
	}
	families := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"random(64,.1)", func() *graph.Graph { return gen.RandomConnected(64, 0.1, xrand.New(41)) }},
		{"tree(63)", func() *graph.Graph { return gen.RandomTree(63, xrand.New(42)) }},
		{"torus 8x8", func() *graph.Graph { return gen.Torus2D(8, 8) }},
		{"hypercube H6", func() *graph.Graph { return gen.Hypercube(6) }},
		{"K24", func() *graph.Graph { return gen.Complete(24) }},
		{"outerplanar(60)", func() *graph.Graph { return gen.MaximalOuterplanar(60, xrand.New(43)) }},
		{"petersen", func() *graph.Graph { return gen.Petersen() }},
	}
	for _, fam := range families {
		g := fam.build()
		apsp := shortest.NewAPSPParallel(g, 0)
		var cells []cell
		tb, err := table.New(g, apsp, table.MinPort)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
		}
		cells = append(cells, cell{tb, g, "O(n log n), s=1", nil})
		iv, err := interval.New(g, apsp, interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy})
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
		}
		cells = append(cells, cell{iv, g, "O(d log n)..O(n log n), s=1", nil})
		lm, err := landmark.NewStreamed(g, landmark.Options{Seed: 17}, evalOpt.Workers)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
		}
		cells = append(cells, cell{lm, g, "o(n) polylog, s<=3", nil})
		switch fam.name {
		case "random(64,.1)":
			// The weighted-table variant rides the same wire kind: the
			// codec stores ports, whatever metric chose them.
			w := shortest.RandomWeights(g, 9, xrand.New(91))
			wtb, err := table.NewWeighted(g, w, nil, table.MinPort)
			if err != nil {
				return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
			}
			cells = append(cells, cell{wtb, g, "O(n log n), s=1 (cost)", w})
		case "tree(63)":
			tr, err := tree.New(g, 0)
			if err != nil {
				return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
			}
			cells = append(cells, cell{tr, g, "O(d log n), s=1", nil})
		case "hypercube H6":
			ec, err := ecube.New(g, 6)
			if err != nil {
				return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
			}
			cells = append(cells, cell{ec, g, "Theta(log n), s=1", nil})
		case "K24":
			fr, err := kcomplete.NewFriendly(g)
			if err != nil {
				return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
			}
			cells = append(cells, cell{fr, g, "O(log n), s=1", nil})
			// The adversary's move mutates port labelings; scramble a
			// clone so the friendly rows above stay untouched.
			ga := g.Clone()
			adv, err := kcomplete.Scramble(ga, xrand.New(8))
			if err != nil {
				return nil, fmt.Errorf("E20 %s: %w", fam.name, err)
			}
			cells = append(cells, cell{adv, ga, "Theta(n log n), s=1", nil})
		}
		for _, c := range cells {
			enc, err := schemeio.Encode(c.g, c.scheme)
			if err != nil {
				return nil, fmt.Errorf("E20 %s/%s: %w", fam.name, c.scheme.Name(), err)
			}
			dec, err := schemeio.Decode(enc.Bytes, c.g)
			if err != nil {
				return nil, fmt.Errorf("E20 %s/%s: decode: %w", fam.name, c.scheme.Name(), err)
			}
			want, got, err := evalPair(c.g, c.scheme, dec, c.w)
			if err != nil {
				return nil, fmt.Errorf("E20 %s/%s: %w", fam.name, c.scheme.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				return nil, fmt.Errorf("E20 %s/%s: decoded scheme's report diverges from the built scheme's", fam.name, c.scheme.Name())
			}
			mem := evaluate.Memory(c.g, c.scheme, evalOpt)
			name := c.scheme.Name()
			if c.w != nil {
				name += " (weighted)"
			}
			t.AddRow(
				fam.name, fmt.Sprintf("%d", c.g.Order()), name,
				fmt.Sprintf("%.3f", want.Max),
				fmt.Sprintf("%d", mem.LocalBits),
				fmt.Sprintf("%d", enc.MaxRouterBits()),
				fmt.Sprintf("%d", mem.GlobalBits),
				fmt.Sprintf("%d", enc.TotalBits()),
				fmt.Sprintf("%d", len(enc.Bytes)),
				c.asym,
				"ok",
			)
		}
	}
	return []*Table{t}, nil
}

// evalPair evaluates the built and the decoded scheme under the cell's
// metric with the harness-wide options, returning both reports.
func evalPair(g *graph.Graph, built, dec routing.Scheme, w shortest.Weights) (*evaluate.Report, *evaluate.Report, error) {
	if w == nil {
		want, err := evaluate.Stretch(g, built, nil, evalOpt)
		if err != nil {
			return nil, nil, err
		}
		got, err := evaluate.Stretch(g, dec, nil, evalOpt)
		return want, got, err
	}
	want, err := evaluate.WeightedStretch(g, built, w, nil, evalOpt)
	if err != nil {
		return nil, nil, err
	}
	got, err := evaluate.WeightedStretch(g, dec, w, nil, evalOpt)
	return want, got, err
}
