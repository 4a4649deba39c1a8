// Core-kernel micro-benchmarks: the hot loops every paper quantity
// funnels through — BFS arc relaxation, all-pairs table construction,
// routing-table derivation, route simulation, and the streaming
// evaluator that composes them.
// CI archives these as BENCH_core.json (see DESIGN.md "Bench
// trajectory") next to the evaluator suite, so the core perf trajectory
// accumulates one data point per run:
//
//	go test -run '^$' -bench '^(BenchmarkBFS|BenchmarkStreamPairDist|BenchmarkMSBFS|BenchmarkLandmarkStreamed|BenchmarkAPSP|BenchmarkTableNew|BenchmarkIntervalNew|BenchmarkRouteVisit|BenchmarkEvaluateStreaming4096)$' \
//	    -benchtime 1x -count 5 -timeout 30m . | go run ./cmd/benchjson > BENCH_core.json
//
// The graphs are seeded random connected graphs with mean degree 8, the
// same family the evaluator scaling experiment (E18) sweeps, at the
// n >= 4096 orders where arc iteration dominates end-to-end time.
package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// BenchmarkBFS measures one single-source traversal with caller-owned
// scratch — the per-row cost of the streaming distance backends. The
// scratch is warmed outside the timer on a source other than the first
// timed one, so a -benchtime 1x run times a traversal, not the
// allocation and first touch of its scratch.
func BenchmarkBFS(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			dist, queue := shortest.BFSInto(g, graph.NodeID(n-1), nil, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist, queue = shortest.BFSInto(g, graph.NodeID(i%n), dist, queue)
			}
			_ = dist
		})
	}
}

// BenchmarkStreamPairDist measures one stretch-query distance on a
// scalar streaming reader both ways over a fixed pair set: "row" reads
// it from the source's BFS row (the Row fallback serving used to take
// for every query), "pair" asks the reader's PairReader, a
// bidirectional BFS. Sources almost never repeat back to back, so the
// row path recomputes its row on nearly every call. Each run takes a
// fresh reader, warmed outside the timer on a source other than the
// first timed one: a reader kept across runs would still hold the row of
// pairs[0], so a -benchtime 1x repeat would time a resident-row lookup
// on either path instead of a BFS, and a cold one would time its
// scratch allocation.
func BenchmarkStreamPairDist(b *testing.B) {
	const n = 4096
	g := benchGraph(n)
	pairs := benchPairs(n, 4096, 5)
	src := shortest.NewStreamSource(g)
	warm := pairs[0][0] ^ 1 // any source but the first timed one
	b.Run(fmt.Sprintf("row/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		rd := src.NewReader()
		rd.Row(warm)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			pairDistSink += rd.Row(p[0])[p[1]]
		}
	})
	b.Run(fmt.Sprintf("pair/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		pr := src.NewReader().(shortest.PairReader)
		pr.Dist(warm, pairs[0][1])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			pairDistSink += pr.Dist(p[0], p[1])
		}
	})
}

// pairDistSink keeps the compiler from eliding the measured reads.
var pairDistSink int32

// benchPairs draws count seeded ordered pairs u != v over [0, n).
func benchPairs(n, count int, seed uint64) [][2]graph.NodeID {
	r := xrand.New(seed)
	pairs := make([][2]graph.NodeID, count)
	for i := range pairs {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n - 1))
		if v >= u {
			v++
		}
		pairs[i] = [2]graph.NodeID{u, v}
	}
	return pairs
}

// BenchmarkMSBFS measures one full 64-source MS-BFS batch with
// caller-owned scratch — the per-block cost of the batched distance
// backends. Divide by 64 to compare against BenchmarkBFS's per-row
// cost: the batch shares one arc scan across all resident lanes. The
// n=2048 and n=4096 arms run the random graphs of every other core
// bench, whose few bulk levels the kernel expands bottom-up; the
// tree/n=2048 arm (gen's "tree" family, a uniform random tree, here
// of diameter 154) keeps every level thin, so it times the direction
// rule's worst case, a traversal the rule must leave top-down. The
// scratch is warmed outside the timer on the last batch of sources, not
// the first timed one, as in BenchmarkBFS.
func BenchmarkMSBFS(b *testing.B) {
	tree, err := gen.ByName("tree", 2048, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		g    *graph.Graph
	}{
		{"n=2048", benchGraph(2048)},
		{"n=4096", benchGraph(4096)},
		{"tree/n=2048", tree},
	} {
		g, n := arm.g, arm.g.Order()
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			srcs := make([]graph.NodeID, shortest.MSBFSWidth)
			for j := range srcs {
				srcs[j] = graph.NodeID(n - 1 - j)
			}
			dist, scr := shortest.MSBFSInto(g, srcs, nil, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := (i * shortest.MSBFSWidth) % n
				for j := range srcs {
					srcs[j] = graph.NodeID((start + j) % n)
				}
				dist, scr = shortest.MSBFSInto(g, srcs, dist, scr)
			}
			_ = dist
		})
	}
}

// BenchmarkLandmarkStreamed measures landmark.NewStreamed on all cores —
// the scheme build behind a stream-mode landmark set-up: |L| landmark
// rows in MS-BFS blocks plus one ball of radius d(v, l(v)) per
// destination v.
func BenchmarkLandmarkStreamed(b *testing.B) {
	g := benchGraph(4096)
	b.Run("n=4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := landmark.NewStreamed(g, landmark.Options{Seed: 1}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// bfsPerRowTable builds the n×n hop table one scalar BFSInto per row
// into one contiguous block, reusing the queue across sources: the
// serial construction NewAPSPParallel's MS-BFS batches replaced, kept
// here only as BenchmarkAPSP's serial arm.
func bfsPerRowTable(g *graph.Graph) [][]int32 {
	g.Freeze()
	n := g.Order()
	rows := make([][]int32, n)
	block := make([]int32, n*n)
	var queue []graph.NodeID
	for u := range rows {
		rows[u], queue = shortest.BFSInto(g, graph.NodeID(u), block[u*n:(u+1)*n:(u+1)*n], queue)
	}
	return rows
}

// BenchmarkAPSP measures all-pairs table construction, serial and
// worker-pool, at the orders where Theorem 1 sweeps and the E18 ladder
// spend their preprocessing time, and at n=2048, the order of the
// routebench tables workloads. serial is a one-BFS-per-row loop
// (bfsPerRowTable) and parallel-1w is NewAPSPParallel on one worker
// (64-source direction-optimizing MS-BFS passes): both run on one
// goroutine, so that pair isolates the row kernel; parallel uses every
// core.
func BenchmarkAPSP(b *testing.B) {
	for _, n := range []int{512, 2048, 4096} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bfsPerRowTable(g)
			}
		})
		b.Run(fmt.Sprintf("parallel-1w/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shortest.NewAPSPParallel(g, 1)
			}
		})
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shortest.NewAPSPParallel(g, 0)
			}
		})
	}
}

// BenchmarkTableNew measures the routing-table build from a finished
// all-pairs table (MinPort) — the largest layer of a tables set-up. The
// APSP is built outside the timer; the build fans routers out over
// GOMAXPROCS, so the figure depends on the core count.
func BenchmarkTableNew(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		g := benchGraph(n)
		apsp := shortest.NewAPSPParallel(g, 0)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := table.New(g, apsp, table.MinPort); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntervalNew measures the interval-routing build from a
// finished all-pairs table, with DFS labels and RunGreedy (the options
// the experiments and routeserve build it with). The APSP and the labels
// are computed outside the timer; the build fans routers out over
// GOMAXPROCS, so the figure depends on the core count.
func BenchmarkIntervalNew(b *testing.B) {
	const n = 2048
	g := benchGraph(n)
	apsp := shortest.NewAPSPParallel(g, 0)
	opt := interval.Options{Labels: interval.DFSLabels(g), Policy: interval.RunGreedy}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := interval.New(g, apsp, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouteVisit measures the allocation-free route simulators on
// shortest-path tables over a fixed pre-drawn set of 65536 pairs. One op
// walks the whole set, so a -benchtime 1x run times 65536 routes, not
// one cold walk: that is long enough (tens of ms) for the arms' ratio to
// rise above the host's scheduling noise, which swamped a 4096-pair op
// of about 1 ms. Each arm walks the set once more before its timer
// starts, so that run times the steady state, not the first pass over
// tables just built. The visit arm streams every hop to a callback
// (RouteVisit); the len arm only counts them (RouteLen, the walk the
// all-pairs evaluator and the serving path run per pair). Both read the
// heap scheme table.New built, whose raw routers answer from a packed
// field of their row code. The mapped-len arm is the len arm over the
// same tables opened from an in-memory container (table.NewLazy: the
// same table.Scheme store, every stripe proven outside the timer), whose
// stripes serve from the same packed fields.
func BenchmarkRouteVisit(b *testing.B) {
	const n = 4096
	g := benchGraph(n)
	s, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	if err := schemeio.WriteFileV2(&img, g, s); err != nil {
		b.Fatal(err)
	}
	m, err := schemeio.MapBytes(img.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		b.Fatal(err)
	}
	pairs := benchPairs(n, 1<<16, 3)
	// run times b.N walks of the pair set by route, after a collection
	// and one untimed walk; route returns the route's hop count.
	run := func(b *testing.B, route func(src, dst graph.NodeID) (int, error)) {
		b.ReportAllocs()
		hops := 0
		walk := func() {
			for _, p := range pairs {
				l, err := route(p[0], p[1])
				if err != nil {
					b.Fatal(err)
				}
				hops += l
			}
		}
		runtime.GC() // the build's garbage is not collected inside the timer
		walk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			walk()
		}
		_ = hops
	}
	b.Run(fmt.Sprintf("visit/n=%d", n), func(b *testing.B) {
		hops := 0
		visit := func(routing.Hop) { hops++ }
		run(b, func(src, dst graph.NodeID) (int, error) {
			hops = 0
			err := routing.RouteVisit(g, s, src, dst, 0, visit)
			return hops, err
		})
	})
	b.Run(fmt.Sprintf("len/n=%d", n), func(b *testing.B) {
		run(b, func(src, dst graph.NodeID) (int, error) { return routing.RouteLen(g, s, src, dst, 0) })
	})
	b.Run(fmt.Sprintf("mapped-len/n=%d", n), func(b *testing.B) {
		mg, ms := m.Graph(), m.Scheme()
		run(b, func(src, dst graph.NodeID) (int, error) { return routing.RouteLen(mg, ms, src, dst, 0) })
	})
}

// BenchmarkEvaluateStreaming4096 measures the streaming all-pairs
// evaluator at n = 4096 — per-worker BFS row recomputation feeding
// millions of route simulations, the workload of the E18 ladder. The
// sampled sub-benchmark claims every source row (1M pairs spread over
// 4096 rows) so the BFS recomputation cost stays fully represented while
// the wall time stays CI-friendly; the exhaustive sub-benchmark routes
// all n(n-1) pairs.
func BenchmarkEvaluateStreaming4096(b *testing.B) {
	const n = 4096
	g := benchGraph(n)
	s, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		sample int
	}{
		{"sampled1M", 1 << 20},
		{"exhaustive", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			opt := evaluate.Options{DistMode: evaluate.DistStream, Sample: bc.sample, Seed: 1}
			for i := 0; i < b.N; i++ {
				rep, err := evaluate.Stretch(g, s, nil, opt)
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
