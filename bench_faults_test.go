// Fault-repair benchmarks: the incremental dirty-set path (refresh +
// row repair) against the from-scratch rebuild it is bit-identical to,
// the landmark scheme's post-fault rebuild, plus the generation-patch
// round trip a serving shard pays to move from generation g to g+1. CI
// archives these as BENCH_faults.json (see DESIGN.md "Bench trajectory")
// next to the other suites:
//
//	go test -run '^$' -bench '^(BenchmarkFaultRepair|BenchmarkFaultRebuild|BenchmarkFaultRebuildLandmark|BenchmarkDeltaApply)$' \
//	    -benchtime 1x -count 5 -timeout 30m . | go run ./cmd/benchjson > BENCH_faults.json
//
// Read FaultRepair against FaultRebuild at the same (n, kills). The
// conservative dirty criterion (|d(v,a)-d(v,b)| = 1 for a removed edge
// {a,b}) marks nearly every root dirty on small-diameter and bipartite
// families (2036 of 2048 here), so the repair redoes almost all the
// work. The rebuild is faster in wall time: about 6x at n=2048 (median
// of 5 on a 2-vCPU Xeon VM: 646 ms repair, 103 ms rebuild), because
// it builds the table with NewAPSPParallel (64-source MS-BFS batches on
// every core) and table.New reads contiguous distance rows over a
// worker pool, while Repair reads one distance row per dirty
// destination and the refresh runs scalar BFS, both on one goroutine. The repair's wins
// are the allocation economy (in-place row refresh vs a from-scratch
// n² APSP + scheme: ~150x fewer bytes) and the patch record DeltaApply
// prices (changed rows only vs a full re-encode). The landmark scheme
// has no repair path: FaultRebuildLandmark times the streamed rebuild
// every landmark fault takes (EXPERIMENTS.md "Fault recovery").
package repro

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
)

const benchKills = 8

// benchFaultPlan draws the suite's seeded connectivity-preserving plan
// on the shared benchmark graph family.
func benchFaultPlan(b *testing.B, g *graph.Graph) *faults.Plan {
	b.Helper()
	plan, err := faults.NewPlan(g, faults.Options{
		Mode: faults.KillEdges, Count: benchKills, Seed: 0xbe7cf, KeepConnected: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkFaultRepair times the incremental path: edge removal,
// dirty-set APSP row refresh, and table row repair — everything a
// serving process runs between "fault detected" and "generation g+1
// ready". The pre-fault state is rebuilt outside the timer each
// iteration (repair mutates it).
func BenchmarkFaultRepair(b *testing.B) {
	for _, n := range []int{512, 2048} {
		base := benchGraph(n)
		plan := benchFaultPlan(b, base)
		b.Run(fmt.Sprintf("n=%d/kills=%d", n, benchKills), func(b *testing.B) {
			b.ReportAllocs()
			var dirtyRows, changedRows int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := base.Clone()
				apsp := shortest.NewAPSPParallel(work, 0)
				sch, err := table.New(work, apsp, table.MinPort)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, e := range plan.Edges {
					work.RemoveEdge(e[0], e[1])
				}
				work.Freeze()
				dirty := faults.DirtyRoots(apsp, plan.Edges)
				apsp.RefreshRows(work, dirty)
				changed, err := sch.Repair(apsp, dirty, table.MinPort)
				if err != nil {
					b.Fatal(err)
				}
				dirtyRows, changedRows = len(dirty), len(changed)
			}
			b.ReportMetric(float64(dirtyRows), "dirty_rows")
			b.ReportMetric(float64(changedRows), "changed_rows")
		})
	}
}

// BenchmarkFaultRebuild is the from-scratch baseline: apply the same
// plan and rebuild APSP (NewAPSPParallel on every core) + scheme on the
// faulted topology.
func BenchmarkFaultRebuild(b *testing.B) {
	for _, n := range []int{512, 2048} {
		base := benchGraph(n)
		plan := benchFaultPlan(b, base)
		b.Run(fmt.Sprintf("n=%d/kills=%d", n, benchKills), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := base.Clone()
				b.StartTimer()
				plan.Apply(work)
				apsp := shortest.NewAPSPParallel(work, 0)
				if _, err := table.New(work, apsp, table.MinPort); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultRebuildLandmark is the landmark scheme's fault path:
// apply the plan and rebuild with NewStreamed on the faulted topology,
// over all cores and without the n² table.
func BenchmarkFaultRebuildLandmark(b *testing.B) {
	for _, n := range []int{512, 2048} {
		base := benchGraph(n)
		plan := benchFaultPlan(b, base)
		b.Run(fmt.Sprintf("n=%d/kills=%d", n, benchKills), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := base.Clone()
				b.StartTimer()
				plan.Apply(work)
				if _, err := landmark.NewStreamed(work, landmark.Options{Seed: 17}, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaApply times what a serving shard pays to adopt a new
// generation from the wire: decode the patch (including the canonical
// re-encode gate) and apply it copy-on-write to the generation-g pair.
// bytes reports the patch size next to the full_bytes re-encode.
func BenchmarkDeltaApply(b *testing.B) {
	for _, n := range []int{512, 2048} {
		base := benchGraph(n)
		plan := benchFaultPlan(b, base)
		apsp := shortest.NewAPSPParallel(base, 0)
		sch, err := table.New(base, apsp, table.MinPort)
		if err != nil {
			b.Fatal(err)
		}
		// Build the patch on a private clone; base/sch stay generation g.
		work := base.Clone()
		apspW := shortest.NewAPSPParallel(work, 0)
		repaired, err := table.New(work, apspW, table.MinPort)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range plan.Edges {
			work.RemoveEdge(e[0], e[1])
		}
		work.Freeze()
		dirty := faults.DirtyRoots(apspW, plan.Edges)
		apspW.RefreshRows(work, dirty)
		changed, err := repaired.Repair(apspW, dirty, table.MinPort)
		if err != nil {
			b.Fatal(err)
		}
		d, err := schemeio.NewDelta(1, plan.Edges, repaired, changed)
		if err != nil {
			b.Fatal(err)
		}
		blob, err := schemeio.EncodeDelta(base, d)
		if err != nil {
			b.Fatal(err)
		}
		full, err := schemeio.Encode(work, repaired)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/kills=%d", n, benchKills), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec, err := schemeio.DecodeDelta(blob, base)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := schemeio.ApplyDelta(base, sch, dec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "bytes")
			b.ReportMetric(float64(len(full.Bytes)), "full_bytes")
		})
	}
}
