// Network-serving conformance suite: an in-process loopback cluster —
// real TCP, real frames, real scatter/gather — must answer exactly
// like the serial in-process serve.Server, for every cell of
//
//	shard count {1, 2, 5} x distance backend {dense, stream}
//	x scheme {tables, landmark},
//
// exhaustively over a small graph and sampled over a larger one. The
// equality asserted is the strongest the wire offers: both result sets
// are serialized with netserve.EncodeResponse and compared byte for
// byte, so answers, per-query error messages and the integer-only
// stretch encoding must all agree — the network analogue of the
// dense==stream bit-identity the evaluator matrix pins.
//
// TestNetServeConcurrentRace is the serving race canary (8 client
// goroutines against a 3-shard cluster with a concurrent graceful
// shutdown mid-stream), run under CI's `go test -race` like the serve
// and MS-BFS canaries before it.
package repro

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/evaluate"
	"repro/internal/gen"
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

// netConfShards are the cluster sizes the matrix sweeps.
var netConfShards = []int{1, 2, 5}

// netConfQueries builds a deterministic query stream cycling the three
// ops over the given pairs; u==v pairs ride along so the per-query
// error path (stretch of a zero-distance pair) is part of the matrix.
func netConfQueries(pairs [][2]graph.NodeID) []serve.Query {
	qs := make([]serve.Query, len(pairs))
	for i, p := range pairs {
		qs[i] = serve.Query{Op: serve.Op(i % 3), U: p[0], V: p[1]}
	}
	return qs
}

func exhaustivePairs(n int) [][2]graph.NodeID {
	pairs := make([][2]graph.NodeID, 0, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pairs = append(pairs, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
		}
	}
	return pairs
}

func sampledPairs(n, count int, seed uint64) [][2]graph.NodeID {
	r := xrand.New(seed)
	pairs := make([][2]graph.NodeID, count)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))}
	}
	return pairs
}

// netConfSource builds one distance source for the given backend —
// called once for the serial baseline and once per shard, so every
// shard owns its reader state exactly as a deployed cluster would.
func netConfSource(t *testing.T, g *graph.Graph, apsp *shortest.APSP, mode evaluate.DistMode) shortest.DistanceSource {
	t.Helper()
	src, err := evaluate.Options{DistMode: mode}.Source(g, apsp)
	if err != nil {
		t.Fatalf("source (%v): %v", mode, err)
	}
	return src
}

func netConfSchemes(t *testing.T, g *graph.Graph, apsp *shortest.APSP) map[string]routing.Scheme {
	t.Helper()
	tb, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatalf("tables: %v", err)
	}
	lm, err := landmark.NewStreamed(g, landmark.Options{Seed: 17}, 0)
	if err != nil {
		t.Fatalf("landmark: %v", err)
	}
	return map[string]routing.Scheme{"tables": tb, "landmark": lm}
}

// startLoopbackCluster brings up k shard servers over fn and dials the
// aggregator. Each shard gets its own distance source instance.
func startLoopbackCluster(t *testing.T, g *graph.Graph, fn routing.Scheme, apsp *shortest.APSP, mode evaluate.DistMode, k int) (*netserve.Group, *netserve.Cluster) {
	t.Helper()
	group, err := netserve.ListenGroupInto(k, func(int) netserve.BatchHandlerInto {
		sv := serve.New(g, fn, netConfSource(t, g, apsp, mode), serve.Options{Workers: 2})
		return sv.ServeBatchInto
	}, netserve.Options{})
	if err != nil {
		t.Fatalf("ListenGroupInto(%d): %v", k, err)
	}
	cluster, err := netserve.DialCluster(group.Addrs(), g.Order(), netserve.ClusterOptions{Deadline: 30 * time.Second})
	if err != nil {
		group.Close()
		t.Fatalf("DialCluster(%d): %v", k, err)
	}
	return group, cluster
}

// assertNetEqual compares a cluster's answers to the serial baseline
// by encoding both through the wire codec: byte equality is exactly
// "same answer, same error message, same stretch arithmetic" per
// positional slot.
func assertNetEqual(t *testing.T, label string, serial, clustered []serve.Result) {
	t.Helper()
	if len(serial) != len(clustered) {
		t.Fatalf("%s: %d cluster results for %d serial", label, len(clustered), len(serial))
	}
	want, err := netserve.EncodeResponse(serial)
	if err != nil {
		t.Fatalf("%s: encode serial: %v", label, err)
	}
	got, err := netserve.EncodeResponse(clustered)
	if err != nil {
		t.Fatalf("%s: encode clustered: %v", label, err)
	}
	if bytes.Equal(want, got) {
		return
	}
	// Locate the first diverging slot for a readable failure.
	for i := range serial {
		se, ce := "", ""
		if serial[i].Err != nil {
			se = serial[i].Err.Error()
		}
		if clustered[i].Err != nil {
			ce = clustered[i].Err.Error()
		}
		if se != ce || serial[i].Len != clustered[i].Len || serial[i].Dist != clustered[i].Dist ||
			serial[i].Stretch != clustered[i].Stretch || len(serial[i].Hops) != len(clustered[i].Hops) {
			t.Fatalf("%s: slot %d diverges:\n serial    %+v (err %q)\n clustered %+v (err %q)",
				label, i, serial[i], se, clustered[i], ce)
		}
	}
	t.Fatalf("%s: encodings diverge with no per-slot diff (encoding bug)", label)
}

func TestNetServeConformanceMatrix(t *testing.T) {
	shapes := []struct {
		name  string
		g     *graph.Graph
		pairs func(n int) [][2]graph.NodeID
	}{
		{
			name:  "exhaustive random(48,.12)",
			g:     gen.RandomConnected(48, 0.12, xrand.New(61)),
			pairs: exhaustivePairs,
		},
		{
			name: "sampled random(400,.025)",
			g:    gen.RandomConnected(400, 0.025, xrand.New(62)),
			pairs: func(n int) [][2]graph.NodeID {
				return sampledPairs(n, 2400, 63)
			},
		},
	}
	for _, shape := range shapes {
		g := shape.g
		n := g.Order()
		apsp := shortest.NewAPSPParallel(g, 0)
		qs := netConfQueries(shape.pairs(n))
		for schemeName, fn := range netConfSchemes(t, g, apsp) {
			for _, mode := range []evaluate.DistMode{evaluate.DistDense, evaluate.DistStream} {
				// Serial baseline once per (scheme, backend): the cluster
				// must reproduce it at every shard count.
				serial := serve.New(g, fn, netConfSource(t, g, apsp, mode), serve.Options{Workers: 2}).ServeBatch(qs)
				for _, k := range netConfShards {
					label := fmt.Sprintf("%s/%s/%v/shards=%d", shape.name, schemeName, mode, k)
					t.Run(label, func(t *testing.T) {
						group, cluster := startLoopbackCluster(t, g, fn, apsp, mode, k)
						defer group.Close()
						defer cluster.Close()
						assertNetEqual(t, label, serial, cluster.ServeBatchInto(qs, nil))
						// A second pass reuses pooled connections — the
						// steady-state path must answer identically too.
						assertNetEqual(t, label+"/pooled", serial[:300], cluster.ServeBatchInto(qs[:300], nil))
					})
				}
			}
		}
	}
}

// TestNetServeMappedStore runs one shards x distmode cell of the
// conformance matrix against a memory-mapped scheme store: the tables
// scheme is framed into a v2 container on disk, reopened through
// schemeio.OpenMapped, and a 2-shard loopback cluster serves out of the
// mapping (router rows decoded lazily on first touch) while the serial
// baseline serves the original in-heap scheme. Wire-level byte equality
// of the answers is the -mmap serving acceptance gate end to end: same
// TCP path, same frames, different container reader.
func TestNetServeMappedStore(t *testing.T) {
	g := gen.RandomConnected(64, 0.1, xrand.New(81))
	apsp := shortest.NewAPSPParallel(g, 0)
	fn, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/store.rsf2"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := schemeio.WriteFileV2(f, g, fn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := schemeio.OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()

	qs := netConfQueries(exhaustivePairs(g.Order()))
	serial := serve.New(g, fn, netConfSource(t, g, apsp, evaluate.DistStream), serve.Options{Workers: 2}).ServeBatch(qs)
	group, cluster := startLoopbackCluster(t, m.Graph(), m.Scheme(), apsp, evaluate.DistStream, 2)
	defer group.Close()
	defer cluster.Close()
	assertNetEqual(t, "mapped/tables/stream/shards=2", serial, cluster.ServeBatchInto(qs, nil))
	// Steady state over pooled connections, straight out of the mapping.
	assertNetEqual(t, "mapped/tables/stream/shards=2/pooled", serial[:300], cluster.ServeBatchInto(qs[:300], nil))
	if err := m.Verify(); err != nil {
		t.Fatalf("post-serving Verify: %v", err)
	}
}

// TestNetServeConcurrentRace: 8 client goroutines stream batches
// against a 3-shard loopback cluster; mid-stream, the whole cluster is
// gracefully drained. Before the drain begins every answer must match
// the serial baseline; after it, every answer must either still match
// or be an explicit error (refusal or transport) — never a wrong
// value, never a hang, never a data race.
func TestNetServeConcurrentRace(t *testing.T) {
	g := gen.RandomConnected(96, 0.08, xrand.New(71))
	apsp := shortest.NewAPSPParallel(g, 0)
	fn, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	group, cluster := startLoopbackCluster(t, g, fn, apsp, evaluate.DistDense, 3)
	defer group.Close()
	defer cluster.Close()

	qs := netConfQueries(sampledPairs(g.Order(), 256, 72))
	serial := serve.New(g, fn, apsp, serve.Options{}).ServeBatch(qs)
	wantBytes, err := netserve.EncodeResponse(serial)
	if err != nil {
		t.Fatal(err)
	}

	var draining sync.WaitGroup // clients signal reaching the midpoint
	stop := make(chan struct{}) // closed once the drain has started
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	draining.Add(8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			armed := false
			// An early return must still unblock the drain, or a failing
			// client would deadlock the test instead of failing it.
			defer func() {
				if !armed {
					draining.Done()
				}
			}()
			for b := 0; b < 40; b++ {
				if b == 10 && !armed {
					draining.Done() // midpoint: unblock the drain
					armed = true
				}
				out := cluster.ServeBatchInto(qs, nil)
				gotErr := false
				for i := range out {
					if out[i].Err != nil {
						if serial[i].Err != nil && out[i].Err.Error() == serial[i].Err.Error() {
							continue // the baseline's own per-query error
						}
						gotErr = true // transport/refusal during drain
						break
					}
				}
				if gotErr {
					select {
					case <-stop: // drain underway: errors are expected; stop
						return
					default:
						errs <- fmt.Errorf("client %d batch %d: error before drain", c, b)
						return
					}
				}
				got, err := netserve.EncodeResponse(out)
				if err != nil {
					errs <- fmt.Errorf("client %d batch %d: encode: %w", c, b, err)
					return
				}
				if !bytes.Equal(got, wantBytes) {
					errs <- fmt.Errorf("client %d batch %d: answers diverge from serial baseline", c, b)
					return
				}
			}
		}(c)
	}
	draining.Wait()
	close(stop)
	if err := group.Close(); err != nil {
		errs <- fmt.Errorf("drain: %w", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
