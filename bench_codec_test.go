// Persistence + serving benchmarks: scheme encode/decode through the
// schemeio wire codec and batched query serving through internal/serve.
// CI archives these as BENCH_codec.json (see DESIGN.md "Bench
// trajectory") next to the evaluator, core and weighted suites, as
// medians of five runs:
//
//	go test -run '^$' -bench '^(BenchmarkEncodeScheme|BenchmarkDecodeScheme|BenchmarkServeBatch|BenchmarkNetServeRoundTrip)$' \
//	    -benchtime 1x -count 5 -timeout 30m . | go run ./cmd/benchjson > BENCH_codec.json
//
// The graphs are the seeded random connected family the core suite
// sweeps; serving drives seeded stretch queries — the evaluator's pair
// workload, shaped as a server batch.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// benchCodecSchemes builds the two scheme regimes the codec suite
// sweeps — tables (dense Θ(n log n) rows) and landmark (sparse o(n)
// state) — on one graph, returning the dense table so callers can
// reuse it as the serving oracle instead of building a second one.
func benchCodecSchemes(b *testing.B, n int) (*graph.Graph, *shortest.APSP, map[string]routing.Scheme) {
	b.Helper()
	g := benchGraph(n)
	apsp := shortest.NewAPSPParallel(g, 0)
	tb, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		b.Fatal(err)
	}
	lm, err := landmark.NewStreamed(g, landmark.Options{Seed: 17}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return g, apsp, map[string]routing.Scheme{"tables": tb, "landmark": lm}
}

func BenchmarkEncodeScheme(b *testing.B) {
	for _, n := range []int{512, 2048} {
		g, _, schemes := benchCodecSchemes(b, n)
		for _, name := range []string{"tables", "landmark"} {
			s := schemes[name]
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				var bytes int
				for i := 0; i < b.N; i++ {
					enc, err := schemeio.Encode(g, s)
					if err != nil {
						b.Fatal(err)
					}
					bytes = len(enc.Bytes)
				}
				b.ReportMetric(float64(bytes), "bytes")
			})
		}
	}
}

func BenchmarkDecodeScheme(b *testing.B) {
	for _, n := range []int{512, 2048} {
		g, _, schemes := benchCodecSchemes(b, n)
		for _, name := range []string{"tables", "landmark"} {
			enc, err := schemeio.Encode(g, schemes[name])
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := schemeio.Decode(enc.Bytes, g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNetServeRoundTrip measures the full framed wire path — one
// TCP round trip of a batch through a loopback netserve server backed
// by the allocation-lean handler (NewServerInto + ServeBatchInto) and
// the pooled cluster client. allocs/op is the headline: a warm
// connection's read-decode-serve-encode loop runs out of per-connection
// scratch and sync.Pool'd bit codecs, so per-batch allocations must
// stay flat in batch size (only route hop slices and response decode
// copies remain).
func BenchmarkNetServeRoundTrip(b *testing.B) {
	const n = 2048
	g, apsp, schemes := benchCodecSchemes(b, n)
	sv := serve.New(g, schemes["tables"], apsp, serve.Options{Workers: 2})
	srv := netserve.NewServerInto(sv.ServeBatchInto, netserve.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cluster, err := netserve.DialCluster([]string{addr.String()}, n, netserve.ClusterOptions{Deadline: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	r := xrand.New(99)
	for _, batch := range []int{64, 1024} {
		qs := make([]serve.Query, batch)
		for i := range qs {
			u := graph.NodeID(r.Intn(n))
			v := graph.NodeID(r.Intn(n))
			if u == v {
				v = graph.NodeID((int(v) + 1) % n)
			}
			qs[i] = serve.Query{Op: serve.Op(i % 3), U: u, V: v}
		}
		// Warm up outside the timer: pooled connection dialed, scratch
		// buffers grown to steady-state size.
		for _, res := range cluster.ServeBatchInto(qs, nil) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := cluster.ServeBatchInto(qs, nil)
				if out[0].Err != nil {
					b.Fatal(out[0].Err)
				}
			}
			b.ReportMetric(float64(batch), "queries")
		})
	}
}

// BenchmarkServeBatch drives one loaded (decoded) tables scheme with a
// seeded 100k-query stretch batch over the dense distance backend (the
// build-once serve-many configuration), across a ladder of worker
// counts: the in-process service time of one batch, with no network.
func BenchmarkServeBatch(b *testing.B) {
	const n = 2048
	const batch = 100000
	g, apsp, schemes := benchCodecSchemes(b, n)
	enc, err := schemeio.Encode(g, schemes["tables"])
	if err != nil {
		b.Fatal(err)
	}
	loaded, err := schemeio.Decode(enc.Bytes, g)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(99)
	qs := make([]serve.Query, batch)
	for i := range qs {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		if u == v {
			v = graph.NodeID((int(v) + 1) % n)
		}
		qs[i] = serve.Query{Op: serve.OpStretch, U: u, V: v}
	}
	for _, workers := range []int{1, 4, 8} {
		sv := serve.New(g, loaded, apsp, serve.Options{Workers: workers})
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := sv.ServeBatch(qs)
				for j := range res {
					if res[j].Err != nil {
						b.Fatal(res[j].Err)
					}
				}
			}
			b.ReportMetric(float64(batch), "queries")
		})
	}
}
