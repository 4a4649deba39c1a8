package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// rowOnlySource hides every optional reader capability of the source it
// wraps, so its readers answer stretch queries through Row(u)[v] — the
// fallback path foreign wrappers (tracing, metering) take.
type rowOnlySource struct{ shortest.DistanceSource }

type rowOnlyReader struct{ rd shortest.RowReader }

func (s rowOnlySource) NewReader() shortest.RowReader {
	return rowOnlyReader{rd: s.DistanceSource.NewReader()}
}

func (r rowOnlyReader) Row(src graph.NodeID) []int32 { return r.rd.Row(src) }

// canonResult renders every field of a Result, the stretch by its bits
// and the error by its text, so two renderings are equal exactly when
// the results are byte-identical.
func canonResult(r Result) string {
	e := "<nil>"
	if r.Err != nil {
		e = r.Err.Error()
	}
	return fmt.Sprintf("len=%d dist=%d stretch=%#x hops=%v err=%s",
		r.Len, r.Dist, math.Float64bits(r.Stretch), r.Hops, e)
}

// pairFixture is a landmark scheme serving on a faulted graph whose
// distance oracle is built on a further faulted copy: stale routes give
// typed route errors, and pairs touching the removed vertex route
// fine but have no distance, so one stretch batch reaches every answer
// shape — a stretch, a route error, an unreachable pair, a self pair
// and an out-of-range pair.
func pairFixture(t *testing.T) (g, gd *graph.Graph, s routing.Scheme, qs []Query) {
	t.Helper()
	g0 := gen.RandomConnected(160, 0.04, xrand.New(71))
	built, err := landmark.NewStreamed(g0, landmark.Options{Seed: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s = loadedScheme(t, g0, built)
	g = g0.Clone()
	edges := g.Edges()
	for _, i := range []int{3, 40, 77, 150, 201} {
		g.RemoveEdge(edges[i][0], edges[i][1])
	}
	gd = g.Clone()
	const dead = 9
	gd.RemoveVertex(dead)

	n := g.Order()
	r := xrand.New(72)
	qs = []Query{
		{Op: OpStretch, U: 0, V: 0},
		{Op: OpStretch, U: dead, V: 1},
		{Op: OpStretch, U: 2, V: dead},
		{Op: OpStretch, U: dead, V: dead},
		{Op: OpStretch, U: -1, V: 3},
		{Op: OpStretch, U: 4, V: graph.NodeID(n)},
	}
	for i := 0; i < 600; i++ {
		// Zipf-like sources: a few hot routers repeat, so readers see
		// runs of one source as the benchmark's query stream does.
		u := graph.NodeID(r.Intn(1 + r.Intn(n)))
		qs = append(qs, Query{Op: OpStretch, U: u, V: graph.NodeID(r.Intn(n))})
	}
	return g, gd, s, qs
}

// TestServePairPathEquivalence pins the PairReader serving path to the
// Row path it replaces: the same stretch batch gives byte-identical
// results, error texts included, from a streaming reader, a Row-only
// wrapper of it, a dense table and a LazySource around each, at several
// worker counts.
func TestServePairPathEquivalence(t *testing.T) {
	g, gd, s, qs := pairFixture(t)
	sources := map[string]func() shortest.DistanceSource{
		"stream":         func() shortest.DistanceSource { return shortest.NewStreamSource(gd) },
		"stream-rowonly": func() shortest.DistanceSource { return rowOnlySource{shortest.NewStreamSource(gd)} },
		"dense":          func() shortest.DistanceSource { return shortest.NewAPSPParallel(gd, 0) },
		"dense-rowonly":  func() shortest.DistanceSource { return rowOnlySource{shortest.NewAPSPParallel(gd, 0)} },
	}
	for _, name := range []string{"stream", "stream-rowonly", "dense", "dense-rowonly"} {
		mk := sources[name]
		sources["lazy-"+name] = func() shortest.DistanceSource { return LazySource(gd.Order(), mk) }
	}

	want := New(g, s, rowOnlySource{shortest.NewStreamSource(gd)}, Options{Workers: 1}).ServeBatch(qs)
	shapes := map[string]bool{}
	for _, r := range want {
		switch {
		case r.Err == nil:
			shapes["stretch"] = true
		case r.Err.Error() == "serve: pair 9->1 unreachable":
			shapes["unreachable"] = true
		default:
			if _, ok := r.Err.(*routing.RouteError); ok {
				shapes["route error"] = true
			}
		}
	}
	for _, sh := range []string{"stretch", "unreachable", "route error"} {
		if !shapes[sh] {
			t.Fatalf("fixture batch has no %s answer", sh)
		}
	}

	for name, mk := range sources {
		for _, workers := range []int{1, 3} {
			got := New(g, s, mk(), Options{Workers: workers}).ServeBatch(qs)
			for i := range want {
				if a, b := canonResult(got[i]), canonResult(want[i]); a != b {
					t.Fatalf("%s workers=%d: query %d %+v:\n got  %s\n want %s", name, workers, i, qs[i], a, b)
				}
			}
		}
	}
}

// TestServePairPathLazyPanic pins the sticky build error on the pair
// path: every stretch query that routes gets the recovered panic as its
// error, every other query keeps its own error, in every round.
func TestServePairPathLazyPanic(t *testing.T) {
	g, _, s, qs := pairFixture(t)
	src := LazySource(g.Order(), func() shortest.DistanceSource { panic("backend exploded") })
	sticky := canonResult(Result{Err: errors.New("serve: lazy distance source build panicked: backend exploded")})
	ref := New(g, s, shortest.NewAPSPParallel(g, 0), Options{Workers: 1}).ServeBatch(qs)
	want := make([]string, len(qs))
	n := graph.NodeID(g.Order())
	for i, q := range qs {
		want[i] = canonResult(ref[i])
		if q.U >= 0 && q.U < n && q.V >= 0 && q.V < n && q.U != q.V {
			if _, err := routing.RouteLen(g, s, q.U, q.V, 0); err == nil {
				want[i] = sticky
			}
		}
	}
	sv := New(g, s, src, Options{Workers: 2})
	for round := 0; round < 2; round++ {
		got := sv.ServeBatch(qs)
		for i, q := range qs {
			if a := canonResult(got[i]); a != want[i] {
				t.Fatalf("round %d: query %d %+v:\n got  %s\n want %s", round, i, q, a, want[i])
			}
		}
	}
}

// TestServePairPathConcurrent is the race canary of the pair path:
// concurrent ServeBatchInto callers with recycled result buffers on one
// server per source, each answer byte-identical to the Row path's.
func TestServePairPathConcurrent(t *testing.T) {
	g, gd, s, qs := pairFixture(t)
	want := New(g, s, rowOnlySource{shortest.NewAPSPParallel(gd, 0)}, Options{Workers: 1}).ServeBatch(qs)
	for name, src := range map[string]shortest.DistanceSource{
		"stream":      shortest.NewStreamSource(gd),
		"lazy-stream": LazySource(gd.Order(), func() shortest.DistanceSource { return shortest.NewStreamSource(gd) }),
		"dense":       shortest.NewAPSPParallel(gd, 0),
	} {
		sv := New(g, s, src, Options{Workers: 3})
		var wg sync.WaitGroup
		errs := make(chan string, 6)
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out []Result
				for round := 0; round < 4; round++ {
					out = sv.ServeBatchInto(qs, out)
					for i := range want {
						if canonResult(out[i]) != canonResult(want[i]) {
							errs <- fmt.Sprintf("%s: query %d diverges under concurrency", name, i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
