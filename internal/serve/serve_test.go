package serve

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// loadedScheme builds a scheme, pushes it through the wire codec and
// returns the DECODED instance — the tests exercise the object a real
// server would hold after loading a scheme file, not the builder's.
func loadedScheme(t testing.TB, g *graph.Graph, s routing.Scheme) routing.Scheme {
	t.Helper()
	enc, err := schemeio.Encode(g, s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := schemeio.Decode(enc.Bytes, g)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// testQueries builds a deterministic mixed-op batch covering all three
// ops, in-range and out-of-range pairs, and u == v edge cases.
func testQueries(n int, count int, seed uint64) []Query {
	r := xrand.New(seed)
	qs := make([]Query, count)
	for i := range qs {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		qs[i] = Query{Op: Op(r.Intn(3)), U: u, V: v}
	}
	qs[0] = Query{Op: OpRoute, U: 0, V: 0}                     // self route: empty path
	qs[1] = Query{Op: OpStretch, U: 1, V: 1}                   // self stretch: per-query error
	qs[2] = Query{Op: OpLen, U: graph.NodeID(n + 5), V: 0}     // out of range
	qs[3] = Query{Op: OpStretch, U: 0, V: graph.NodeID(n - 1)} // regular stretch
	qs[4] = Query{Op: Op(200), U: 0, V: 1}                     // unknown op
	qs[5] = Query{Op: OpRoute, U: graph.NodeID(n - 1), V: 0}   // regular route
	return qs
}

// serialAnswer computes the expected result of one query with the
// serial routing package — the baseline every pooled answer must match
// bit for bit.
func serialAnswer(g *graph.Graph, fn routing.Function, apsp *shortest.APSP, q Query) Result {
	n := graph.NodeID(g.Order())
	if q.U < 0 || q.U >= n || q.V < 0 || q.V >= n {
		return Result{Err: errAny}
	}
	switch q.Op {
	case OpRoute:
		hops, err := routing.Route(g, fn, q.U, q.V, 0)
		if err != nil {
			return Result{Err: errAny}
		}
		return Result{Len: routing.PathLen(hops), Hops: hops}
	case OpLen:
		l, err := routing.RouteLen(g, fn, q.U, q.V, 0)
		if err != nil {
			return Result{Err: errAny}
		}
		return Result{Len: l}
	case OpStretch:
		if q.U == q.V {
			return Result{Err: errAny}
		}
		l, err := routing.RouteLen(g, fn, q.U, q.V, 0)
		if err != nil {
			return Result{Err: errAny}
		}
		d := apsp.Dist(q.U, q.V)
		return Result{Len: l, Dist: d, Stretch: float64(l) / float64(d)}
	default:
		return Result{Err: errAny}
	}
}

// errAny marks "an error is expected here"; resultsMatch only compares
// error presence, not text.
var errAny = &routing.RouteError{Reason: routing.ReasonLoop, Detail: "expected error"}

func resultsMatch(got, want Result) bool {
	if (got.Err != nil) != (want.Err != nil) {
		return false
	}
	if got.Err != nil {
		return true
	}
	return got.Len == want.Len && got.Dist == want.Dist &&
		got.Stretch == want.Stretch && reflect.DeepEqual(got.Hops, want.Hops)
}

// TestServeMatchesSerial pins ServeBatch against the serial baseline
// for every backend and several worker counts.
func TestServeMatchesSerial(t *testing.T) {
	g := gen.RandomConnected(64, 0.1, xrand.New(41))
	apsp := shortest.NewAPSPParallel(g, 0)
	built, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	s := loadedScheme(t, g, built)
	qs := testQueries(g.Order(), 2000, 3)
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i] = serialAnswer(g, s, apsp, q)
	}
	sources := map[string]shortest.DistanceSource{
		"dense":  apsp,
		"stream": shortest.NewStreamSource(g),
	}
	for name, src := range sources {
		for _, workers := range []int{0, 1, 3, 8} {
			sv := New(g, s, src, Options{Workers: workers})
			got := sv.ServeBatch(qs)
			for i := range got {
				if !resultsMatch(got[i], want[i]) {
					t.Fatalf("%s workers=%d: query %d (%+v): got %+v, want %+v",
						name, workers, i, qs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestServeNoDistanceSource pins the per-query error for stretch ops on
// a server without an oracle.
func TestServeNoDistanceSource(t *testing.T) {
	g := gen.RandomTree(15, xrand.New(4))
	built, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	sv := New(g, loadedScheme(t, g, built), nil, Options{})
	res := sv.ServeBatch([]Query{{Op: OpStretch, U: 0, V: 1}, {Op: OpLen, U: 0, V: 1}})
	if res[0].Err == nil {
		t.Fatal("stretch without a distance source did not error")
	}
	if res[1].Err != nil {
		t.Fatalf("len query failed: %v", res[1].Err)
	}
}

// TestServeEmptyBatch pins the degenerate shapes.
func TestServeEmptyBatch(t *testing.T) {
	g := gen.Petersen()
	built, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	sv := New(g, loadedScheme(t, g, built), nil, Options{Workers: 4})
	if got := sv.ServeBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	if w := sv.Workers(1); w != 1 {
		t.Fatalf("1-query batch uses %d workers", w)
	}
}

// TestServeConcurrentRace is the race canary of the serving subsystem:
// many goroutines fire batched queries at ONE loaded (decode-side)
// scheme through ONE server per backend, under `go test -race` in CI.
// Every answer must be bit-identical to the serial routing baseline —
// pinning both the absence of data races (loaded schemes are read-only
// after decode) and the worker-count independence of the answers.
func TestServeConcurrentRace(t *testing.T) {
	g := gen.RandomConnected(48, 0.12, xrand.New(42))
	apsp := shortest.NewAPSPParallel(g, 0)
	builtTables, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	builtLm, err := landmark.NewStreamed(g, landmark.Options{Seed: 17}, 0)
	if err != nil {
		t.Fatal(err)
	}
	schemes := map[string]routing.Scheme{
		"tables":   loadedScheme(t, g, builtTables),
		"landmark": loadedScheme(t, g, builtLm),
	}
	for name, s := range schemes {
		for srcName, src := range map[string]shortest.DistanceSource{
			"dense":  apsp,
			"stream": shortest.NewStreamSource(g),
		} {
			sv := New(g, s, src, Options{Workers: 4})
			const goroutines = 8
			const rounds = 5
			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for gi := 0; gi < goroutines; gi++ {
				wg.Add(1)
				go func(gi int) {
					defer wg.Done()
					qs := testQueries(g.Order(), 400, uint64(100+gi))
					want := make([]Result, len(qs))
					for i, q := range qs {
						want[i] = serialAnswer(g, s, apsp, q)
					}
					for r := 0; r < rounds; r++ {
						got := sv.ServeBatch(qs)
						for i := range got {
							if !resultsMatch(got[i], want[i]) {
								errs <- name + "/" + srcName + ": concurrent answer diverges from serial"
								return
							}
						}
					}
				}(gi)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		}
	}
}
