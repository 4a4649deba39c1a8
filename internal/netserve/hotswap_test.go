package netserve

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// hotShardFixture builds the two scheme generations of the shard
// hot-swap test — generation 1 on the pre-fault graph, generation 2 the
// incrementally repaired scheme on the faulted clone — plus a query
// batch the two answer differently.
func hotShardFixture(t testing.TB) (sv1, sv2 *serve.Server, qs []serve.Query, want1, want2 []serve.Result) {
	t.Helper()
	base := gen.RandomConnected(36, 0.14, xrand.New(77))
	apsp := shortest.NewAPSPParallel(base, 0)
	sch, err := table.New(base, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	sv1 = serve.New(base, sch, apsp, serve.Options{Workers: 2})

	plan, err := faults.NewPlan(base, faults.Options{
		Mode: faults.KillEdges, Count: 4, Seed: 0xbead, KeepConnected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	work := base.Clone()
	apspW := shortest.NewAPSPParallel(work, 0)
	repaired, err := table.New(work, apspW, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Edges {
		work.RemoveEdge(e[0], e[1])
	}
	work.Freeze()
	dirty := faults.DirtyRoots(apspW, plan.Edges)
	apspW.RefreshRows(work, dirty)
	if _, err := repaired.Repair(apspW, dirty, table.MinPort); err != nil {
		t.Fatal(err)
	}
	sv2 = serve.New(work, repaired, apspW, serve.Options{Workers: 2})

	r := xrand.New(13)
	n := base.Order()
	for len(qs) < 120 {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		qs = append(qs, serve.Query{Op: serve.OpLen, U: u, V: v})
	}
	want1 = sv1.ServeBatch(qs)
	want2 = sv2.ServeBatch(qs)
	if reflect.DeepEqual(want1, want2) {
		t.Fatal("generations answer identically; tearing would be invisible")
	}
	return sv1, sv2, qs, want1, want2
}

// TestShardHotSwapMidStream is the network-side drain contract: a shard
// whose handler routes through serve.HotServer keeps answering framed
// batches while the scheme generation is swapped underneath it.
// Every client batch must come back complete (zero dropped batches)
// and equal ONE generation's answer vector in full — a response mixing
// generations is a torn batch. Runs under `go test -race` in CI.
func TestShardHotSwapMidStream(t *testing.T) {
	sv1, sv2, qs, want1, want2 := hotShardFixture(t)
	hot := serve.NewHot(sv1)
	srv := NewServerInto(func(qs []serve.Query, out []serve.Result) []serve.Result {
		rs, _ := hot.ServeBatchInto(qs, out)
		return rs
	}, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 4
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		batches atomic.Int64
		failed  atomic.Value
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := DialCluster([]string{addr.String()}, 36, ClusterOptions{Deadline: 5 * time.Second})
			if err != nil {
				failed.CompareAndSwap(nil, "dial: "+err.Error())
				return
			}
			defer cl.Close()
			var out []serve.Result
			for !stop.Load() {
				out = cl.ServeBatchInto(qs, out)
				if len(out) != len(qs) {
					failed.CompareAndSwap(nil, "dropped batch: short result set")
					return
				}
				m1, m2 := true, true
				for i := range out {
					if out[i].Err != nil {
						failed.CompareAndSwap(nil, "query error mid-stream: "+out[i].Err.Error())
						return
					}
					if out[i].Len != want1[i].Len {
						m1 = false
					}
					if out[i].Len != want2[i].Len {
						m2 = false
					}
				}
				if !m1 && !m2 {
					failed.CompareAndSwap(nil, "torn batch: response mixes generations")
					return
				}
				batches.Add(1)
			}
		}()
	}
	// Swap generations while the clients stream, pacing on progress.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 20; i++ {
		target := batches.Load() + 1
		for batches.Load() < target && failed.Load() == nil && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
		next := sv2
		if hot.Generation()%2 == 0 {
			next = sv1
		}
		hot.Swap(next)
	}
	stop.Store(true)
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
	if hot.Generation() != 21 {
		t.Fatalf("final generation %d, want 21", hot.Generation())
	}
	if batches.Load() < 20 {
		t.Fatalf("only %d batches completed across the swap storm", batches.Load())
	}
}
