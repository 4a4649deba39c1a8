package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// TestLazySourceBuildPanic pins the sticky-error contract: a build
// function that panics must not poison the sync.Once into later
// nil-dereferences — every stretch query surfaces the recovered panic
// as a per-query error, other ops keep working, and ResidentRows
// reports 0 instead of re-entering the failed build.
func TestLazySourceBuildPanic(t *testing.T) {
	g := gen.Cycle(8)
	built, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	src := LazySource(g.Order(), func() shortest.DistanceSource {
		calls++
		panic("backend exploded")
	})
	sv := New(g, loadedScheme(t, g, built), src, Options{Workers: 1})
	qs := []Query{
		{Op: OpStretch, U: 0, V: 3},
		{Op: OpLen, U: 0, V: 3},
		{Op: OpStretch, U: 1, V: 5},
	}
	for round := 0; round < 2; round++ {
		res := sv.ServeBatch(qs)
		for _, i := range []int{0, 2} {
			if res[i].Err == nil {
				t.Fatalf("round %d: stretch query %d after build panic returned no error", round, i)
			}
			if !strings.Contains(res[i].Err.Error(), "backend exploded") {
				t.Fatalf("round %d: error does not surface the panic: %v", round, res[i].Err)
			}
		}
		if res[1].Err != nil {
			t.Fatalf("round %d: len query failed: %v", round, res[1].Err)
		}
	}
	if calls != 1 {
		t.Fatalf("build ran %d times, want exactly 1 (sticky)", calls)
	}
	if r := src.ResidentRows(4); r != 0 {
		t.Fatalf("ResidentRows after failed build = %d, want 0", r)
	}
}

// TestLazySourceNilBuild pins the other degenerate build outcome: a
// build that returns nil becomes a sticky error, not a nil-deref.
func TestLazySourceNilBuild(t *testing.T) {
	g := gen.Cycle(6)
	built, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	src := LazySource(g.Order(), func() shortest.DistanceSource { return nil })
	sv := New(g, loadedScheme(t, g, built), src, Options{Workers: 1})
	res := sv.ServeBatch([]Query{{Op: OpStretch, U: 0, V: 2}})
	if res[0].Err == nil {
		t.Fatal("stretch against a nil-returning build did not error")
	}
}

// hotGenerations builds the two servers of the drain test: generation 1
// serves the pre-fault scheme on the pre-fault graph, generation 2 the
// incrementally repaired scheme on the faulted graph. The two answer at
// least one query differently (the fault reroutes some pair), which is
// what lets the test detect a torn batch.
func hotGenerations(t testing.TB) (sv1, sv2 *Server, qs []Query, want1, want2 []Result) {
	t.Helper()
	base := gen.RandomConnected(40, 0.12, xrand.New(91))
	apsp := shortest.NewAPSPParallel(base, 0)
	sch, err := table.New(base, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	sv1 = New(base, sch, apsp, Options{Workers: 2})

	plan, err := faults.NewPlan(base, faults.Options{
		Mode: faults.KillEdges, Count: 4, Seed: 0x90e, KeepConnected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Generation 2 lives on its own clone: build pre-fault (identical to
	// sch — the build is deterministic), inject the plan, repair in place.
	// sv1's graph, scheme and distance rows stay untouched.
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
	sv2 = New(work, repaired, apspW, Options{Workers: 2})

	// Live pairs, still connected post-fault (KeepConnected guarantees all).
	r := xrand.New(7)
	n := base.Order()
	for len(qs) < 300 {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		qs = append(qs, Query{Op: OpLen, U: u, V: v})
	}
	want1 = sv1.ServeBatch(qs)
	want2 = sv2.ServeBatch(qs)
	differ := false
	for i := range want1 {
		if !resultsMatch(want1[i], want2[i]) {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("generations answer identically; drain test cannot detect tearing")
	}
	return sv1, sv2, qs, want1, want2
}

// TestHotSwapDrain is the race-tested drain contract of the generation
// swap: worker goroutines hammer ServeBatchInto while the main
// goroutine keeps swapping between two generations whose answers
// differ. Every batch must (a) complete with a full result set — zero
// dropped batches — and (b) answer ENTIRELY on the generation whose
// sequence number it reports: a single answer from the other
// generation is a torn batch. Runs under `go test -race` in CI.
func TestHotSwapDrain(t *testing.T) {
	sv1, sv2, qs, want1, want2 := hotGenerations(t)
	h := NewHot(sv1)
	if h.Generation() != 1 {
		t.Fatalf("initial generation %d, want 1", h.Generation())
	}

	const workers = 6
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		batches atomic.Int64
		failed  atomic.Value // first failure message
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []Result
			for !stop.Load() {
				var seq uint64
				out, seq = h.ServeBatchInto(qs, out)
				if len(out) != len(qs) {
					failed.CompareAndSwap(nil, "dropped batch: short result set")
					return
				}
				// Odd generations are sv1, even sv2 (Swap alternates below).
				want := want1
				if seq%2 == 0 {
					want = want2
				}
				for i := range out {
					if !resultsMatch(out[i], want[i]) {
						failed.CompareAndSwap(nil, "torn batch: answer from the wrong generation")
						return
					}
				}
				batches.Add(1)
			}
		}()
	}
	// Swap back and forth while the workers drain batches, pacing each
	// swap on batch progress so generations actually get traffic (an
	// unpaced loop finishes all 40 swaps before the first batch lands).
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 40; i++ {
		target := batches.Load() + 1
		for batches.Load() < target && failed.Load() == nil && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		next := sv2
		if h.Generation()%2 == 0 {
			next = sv1
		}
		prev := h.Generation()
		if got := h.Swap(next); got != prev+1 {
			t.Errorf("swap %d: generation %d, want %d", i, got, prev+1)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
	if h.Generation() != 41 {
		t.Fatalf("final generation %d, want 41", h.Generation())
	}
	if batches.Load() == 0 {
		t.Fatal("no batches completed during the swap storm")
	}
}
