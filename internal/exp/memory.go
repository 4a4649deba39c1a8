package exp

import (
	"fmt"

	"repro/internal/combinat"
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
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func init() {
	Register(Experiment{ID: "E1", Title: "Table 1 — memory requirement vs stretch factor (empirical analogue)", Run: runE1})
	Register(Experiment{ID: "E7", Title: "Section 1 — e-cube on hypercubes: MEM_local(H,1) = Theta(log n)", Run: runE7})
	Register(Experiment{ID: "E8", Title: "Section 1 — complete graph: adversarial vs friendly port labeling", Run: runE8})
	Register(Experiment{ID: "E9", Title: "Section 1 — interval routing on trees/outerplanar/unit circular-arc", Run: runE9})
	Register(Experiment{ID: "E10", Title: "Table 1 (s >= 3 rows) — landmark scheme memory/stretch tradeoff", Run: runE10})
}

// measureScheme routes all pairs and meters all routers for one scheme
// through the concurrent evaluation engine (exhaustive unless routelab
// asked for sampling).
func measureScheme(g *graph.Graph, s routing.Scheme, apsp *shortest.APSP) (*evaluate.Report, evaluate.MemoryReport, error) {
	rep, err := evaluate.Stretch(g, s, apsp, evalOpt)
	if err != nil {
		return nil, evaluate.MemoryReport{}, err
	}
	return rep, evaluate.Memory(g, s, evalOpt), nil
}

// runE1 is the empirical analogue of the paper's Table 1: for one
// workload graph per structural family, it runs every applicable
// universal scheme, measures the realized stretch and the local/global
// memory under the fixed coding strategy, and prints them side by side
// with the table's asymptotic rows. The paper's qualitative shape —
// Θ(n log n) local bits for any s < 2 (tables; Theorem 1 says this is
// unavoidable) collapsing to o(n) once s >= 3 (landmark row) — is what
// the numbers reproduce.
func runE1() ([]*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "memory vs stretch across schemes and graph families",
		Note: "theory column: the corresponding Table 1 row of the paper.\n" +
			"s<2 local: Theta(n log n) [Thm 1]; s=1 structured families: O(d log n);\n" +
			"s<=3 landmark: o(n) per router.",
		Columns: []string{"graph", "n", "scheme", "stretch(max)", "stretch(mean)", "MEM_local", "MEM_global", "theory"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	r := xrand.New(20240612)
	workloads := []wl{
		{"random(n=96,p=.08)", gen.RandomConnected(96, 0.08, r.Split())},
		{"torus 8x8", gen.Torus2D(8, 8)},
		{"hypercube H6", gen.Hypercube(6)},
		{"tree(n=96)", gen.RandomTree(96, r.Split())},
		{"outerplanar(n=96)", gen.MaximalOuterplanar(96, r.Split())},
		{"K32", gen.Complete(32)},
	}
	for _, w := range workloads {
		apsp := shortest.NewAPSPParallel(w.g, evalOpt.Workers)
		n := w.g.Order()
		add := func(s routing.Scheme, theory string) error {
			sr, mr, err := measureScheme(w.g, s, apsp)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, s.Name(), err)
			}
			t.AddRow(w.name, fmt.Sprintf("%d", n), s.Name(),
				fmt.Sprintf("%.2f", sr.Max), fmt.Sprintf("%.2f", sr.Mean),
				fmt.Sprintf("%d", mr.LocalBits), fmt.Sprintf("%d", mr.GlobalBits), theory)
			return nil
		}
		tb, err := table.New(w.g, apsp, table.MinPort)
		if err != nil {
			return nil, err
		}
		if err := add(tb, "s=1: Theta(n log n) local"); err != nil {
			return nil, err
		}
		iv, err := interval.New(w.g, apsp, interval.Options{Labels: interval.DFSLabels(w.g), Policy: interval.RunGreedy})
		if err != nil {
			return nil, err
		}
		if err := add(iv, "s=1: k-IRS, O(k d log n) local"); err != nil {
			return nil, err
		}
		lm, err := landmark.NewStreamed(w.g, landmark.Options{Seed: 7}, evalOpt.Workers)
		if err != nil {
			return nil, err
		}
		if err := add(lm, "s<=3: o(n) local"); err != nil {
			return nil, err
		}
		switch w.name {
		case "hypercube H6":
			ec, err := ecube.New(w.g, 6)
			if err != nil {
				return nil, err
			}
			if err := add(ec, "s=1: Theta(log n) local"); err != nil {
				return nil, err
			}
		case "K32":
			fr, err := kcomplete.NewFriendly(w.g)
			if err != nil {
				return nil, err
			}
			if err := add(fr, "s=1: O(log n) local (good labels)"); err != nil {
				return nil, err
			}
		case "tree(n=96)":
			tr, err := tree.New(w.g, 0)
			if err != nil {
				return nil, err
			}
			if err := add(tr, "s=1: O(d log n) local (1-IRS)"); err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}

// runE7 reproduces the hypercube claim of Section 1: e-cube needs exactly
// log2 n bits per router while full tables pay Θ(n log log n)-ish raw rows
// (n-1 entries of ceil(log2 d) bits); the gap is exponential.
func runE7() ([]*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "e-cube vs 1-IRS vs routing tables on hypercubes",
		Columns: []string{"dim", "n", "ecube MEM_local", "log2 n", "1-IRS MEM_local", "tables MEM_local", "tables/ecube"},
	}
	for d := 4; d <= 9; d++ {
		g := gen.Hypercube(d)
		ec, err := ecube.New(g, d)
		if err != nil {
			return nil, err
		}
		irs, err := interval.NewHypercube1IRS(g, d)
		if err != nil {
			return nil, err
		}
		if k := irs.MaxIntervalsPerArc(); k != 1 {
			return nil, fmt.Errorf("E7: hypercube 1-IRS produced %d intervals per arc", k)
		}
		tb, err := table.New(g, nil, table.MinPort)
		if err != nil {
			return nil, err
		}
		em := evaluate.Memory(g, ec, evalOpt)
		im := evaluate.Memory(g, irs, evalOpt)
		tm := evaluate.Memory(g, tb, evalOpt)
		t.AddRow(
			fmt.Sprintf("%d", d), fmt.Sprintf("%d", g.Order()),
			fmt.Sprintf("%d", em.LocalBits), fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", im.LocalBits),
			fmt.Sprintf("%d", tm.LocalBits),
			fmt.Sprintf("%.1f", float64(tm.LocalBits)/float64(em.LocalBits)),
		)
	}
	return []*Table{t}, nil
}

// runE8 reproduces the complete-graph example of Section 1: under an
// adversarial port labeling a router of K_n must store a permutation of
// its n-1 ports — ceil(log2 (n-1)!) = Θ(n log n) bits — while a friendly
// labeling costs O(log n).
func runE8() ([]*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "K_n local memory under friendly vs adversarial port labelings",
		Columns: []string{"n", "friendly bits", "adversarial bits", "log2((n-1)!)", "ratio adv/frnd"},
	}
	for _, n := range []int{16, 32, 64, 128, 256} {
		gf := gen.Complete(n)
		fr, err := kcomplete.NewFriendly(gf)
		if err != nil {
			return nil, err
		}
		ga := gen.Complete(n)
		ad, err := kcomplete.Scramble(ga, xrand.New(uint64(n)))
		if err != nil {
			return nil, err
		}
		fb := evaluate.Memory(gf, fr, evalOpt).LocalBits
		ab := evaluate.Memory(ga, ad, evalOpt).LocalBits
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", fb),
			fmt.Sprintf("%d", ab),
			fmt.Sprintf("%.0f", combinat.Log2Factorial(n-1)),
			fmt.Sprintf("%.1f", float64(ab)/float64(fb)),
		)
	}
	return []*Table{t}, nil
}

// runE9 reproduces the interval-routing claims of Section 1: on trees,
// outerplanar and unit circular-arc graphs the scheme stays compact
// (small k, O(k d log n) bits), while random graphs drift toward many
// intervals.
func runE9() ([]*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "interval routing compactness by family",
		Columns: []string{"graph", "n", "maxdeg", "k (max ivals/arc)", "total ivals", "IRS MEM_local", "tables MEM_local"},
	}
	r := xrand.New(99)
	type wl struct {
		name   string
		g      *graph.Graph
		labels []int32
	}
	mk := func(name string, g *graph.Graph, useDFS bool) wl {
		var l []int32
		if useDFS {
			l = interval.DFSLabels(g)
		}
		return wl{name, g, l}
	}
	workloads := []wl{
		mk("path(128)", gen.Path(128), true),
		mk("tree(128)", gen.RandomTree(128, r.Split()), true),
		mk("caterpillar(64+64)", gen.Caterpillar(64, 64), true),
		mk("outerplanar(96)", gen.MaximalOuterplanar(96, r.Split()), false),
		mk("unit-interval(96)", gen.UnitInterval(96, 0.7, r.Split()), false),
		mk("unit-circ-arc(96)", gen.UnitCircularArc(96, 0.05, r.Split()), false),
		mk("chordal 2-tree(96)", gen.KTree(96, 2, r.Split()), false),
		mk("random(96,.08)", gen.RandomConnected(96, 0.08, r.Split()), false),
	}
	for _, w := range workloads {
		apsp := shortest.NewAPSPParallel(w.g, evalOpt.Workers)
		iv, err := interval.New(w.g, apsp, interval.Options{Labels: w.labels, Policy: interval.RunGreedy})
		if err != nil {
			return nil, err
		}
		tb, err := table.New(w.g, apsp, table.MinPort)
		if err != nil {
			return nil, err
		}
		im := evaluate.Memory(w.g, iv, evalOpt)
		tm := evaluate.Memory(w.g, tb, evalOpt)
		t.AddRow(
			w.name, fmt.Sprintf("%d", w.g.Order()), fmt.Sprintf("%d", w.g.MaxDegree()),
			fmt.Sprintf("%d", iv.MaxIntervalsPerArc()),
			fmt.Sprintf("%d", iv.TotalIntervals()),
			fmt.Sprintf("%d", im.LocalBits),
			fmt.Sprintf("%d", tm.LocalBits),
		)
	}
	return []*Table{t}, nil
}

// runE10 reproduces the large-stretch rows of Table 1: once stretch 3 is
// tolerated, per-router memory drops to o(n) — the landmark scheme's
// cluster+landmark tables — while tables stay Θ(n log n).
func runE10() ([]*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "landmark scheme (s <= 3) vs routing tables (s = 1)",
		Columns: []string{"n", "|L|", "max cluster", "landmark stretch", "landmark MEM_local", "tables MEM_local", "local ratio"},
	}
	for _, n := range []int{100, 200, 400} {
		g := gen.RandomConnected(n, 6.0/float64(n), xrand.New(uint64(n)*7))
		apsp := shortest.NewAPSPParallel(g, evalOpt.Workers)
		lm, err := landmark.NewStreamed(g, landmark.Options{Seed: uint64(n)}, evalOpt.Workers)
		if err != nil {
			return nil, err
		}
		tb, err := table.New(g, apsp, table.MinPort)
		if err != nil {
			return nil, err
		}
		sr, err := evaluate.Stretch(g, lm, apsp, evalOpt)
		if err != nil {
			return nil, err
		}
		lmem := evaluate.Memory(g, lm, evalOpt)
		tmem := evaluate.Memory(g, tb, evalOpt)
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", lm.NumLandmarks()),
			fmt.Sprintf("%d", lm.MaxCluster()),
			fmt.Sprintf("%.2f", sr.Max),
			fmt.Sprintf("%d", lmem.LocalBits),
			fmt.Sprintf("%d", tmem.LocalBits),
			fmt.Sprintf("%.2f", float64(lmem.LocalBits)/float64(tmem.LocalBits)),
		)
	}
	return []*Table{t}, nil
}
