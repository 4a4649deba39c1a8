package evaluate

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// TestStretchCertifiesDelivery: a nil error from Stretch means the
// scheme delivered every ordered pair — the universality check.
func TestStretchCertifiesDelivery(t *testing.T) {
	g := gen.Petersen()
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stretch(g, s, nil, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestStretchRejectsLoop(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := Stretch(g, loopScheme{}, nil, Options{}); err == nil {
		t.Fatal("a looping scheme measured without error")
	}
}

func TestMeasureStretchShortest(t *testing.T) {
	g := gen.Hypercube(4)
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stretch(g, s, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("shortest-path routing has stretch %v, want 1", rep.Max)
	}
	if rep.Pairs != 16*15 {
		t.Fatalf("measured %d pairs, want 240", rep.Pairs)
	}
	if rep.Mean != 1.0 {
		t.Fatalf("mean stretch %v, want 1", rep.Mean)
	}
}

func TestMeasureMemory(t *testing.T) {
	g := gen.Cycle(6)
	rep := Memory(g, constBits(6), Options{})
	if rep.LocalBits != 6 || rep.GlobalBits != 36 {
		t.Fatalf("memory report (%d,%d), want (6,36)", rep.LocalBits, rep.GlobalBits)
	}
	if rep.MeanBits != 6 {
		t.Fatalf("mean %v, want 6", rep.MeanBits)
	}
}

// TestWeightedStretchBackendParity pins the tentpole contract at the
// package level: WeightedStretch under stream mode never sees
// the dense weighted table yet reports bit-identically to it.
func TestWeightedStretchBackendParity(t *testing.T) {
	g := gen.Torus2D(5, 5)
	w := shortest.RandomWeights(g, 5, xrand.New(17))
	s, err := table.NewWeighted(g, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := WeightedStretch(g, s, w, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rep, err := WeightedStretch(g, s, w, nil, Options{Workers: workers, DistMode: DistStream})
		if err != nil {
			t.Fatalf("stream workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(rep, dense) {
			t.Fatalf("stream workers=%d: weighted report diverges from dense", workers)
		}
	}
	// Malformed weights surface as an error from backend resolution, in
	// every mode — the replacement for the old silent dense fallback.
	bad := shortest.UniformWeights(g)
	bad[0] = bad[0][:0]
	for _, mode := range []DistMode{DistDense, DistStream} {
		if _, err := WeightedStretch(g, s, bad, nil, Options{DistMode: mode}); err == nil {
			t.Fatalf("%s: malformed weights evaluated without error", mode)
		}
	}
	// Same when the caller supplies the rows itself — explicit Distances
	// or a precomputed dense table skip the resolver's constructors, so
	// WeightedStretch must validate before the cost numerator indexes w
	// inside a worker.
	good, err := shortest.NewWeightedAPSPParallel(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WeightedStretch(g, s, bad, nil, Options{Distances: good}); err == nil {
		t.Fatal("explicit Distances: malformed weights evaluated without error")
	}
	if _, err := WeightedStretch(g, s, bad, good, Options{}); err == nil {
		t.Fatal("caller-supplied dense table: malformed weights evaluated without error")
	}
}

// TestSamplingDeterministic checks that the sampled evaluator is a pure
// function of (n, seed, sample) — independent of workers — and actually
// evaluates the requested number of pairs.
func TestSamplingDeterministic(t *testing.T) {
	g := gen.Grid2D(8, 8)
	apsp := shortest.NewAPSPParallel(g, 0)
	s, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	const sample = 500
	var first *Report
	for _, workers := range []int{1, 3, 8} {
		rep, err := Stretch(g, s, apsp, Options{Workers: workers, Sample: sample, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sampled {
			t.Fatal("report not marked sampled")
		}
		if rep.Pairs != sample {
			t.Fatalf("sampled %d pairs, want %d", rep.Pairs, sample)
		}
		if first == nil {
			first = rep
		} else if !reflect.DeepEqual(rep, first) {
			t.Fatalf("workers=%d: sampled report differs from workers=1", workers)
		}
	}
	other, err := Stretch(g, s, apsp, Options{Sample: sample, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, first) {
		t.Fatal("different seeds produced identical sampled reports")
	}
	// A sample of every pair must agree with the exhaustive run on the
	// exactly-merged statistics.
	full, err := Stretch(g, s, apsp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Stretch(g, s, apsp, Options{Sample: g.Order() * (g.Order() - 1), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if all.Pairs != full.Pairs || all.Max != full.Max || all.Mean != full.Mean ||
		all.TotalHops != full.TotalHops || all.Hist != full.Hist {
		t.Fatalf("full-coverage sample %+v disagrees with exhaustive %+v", all, full)
	}
}

// TestSampleBudgetCoversAllPairs checks the fallback that lets one
// harness-wide sample budget span workloads of mixed size: a budget at or
// above n(n-1) runs exhaustively instead of failing on small graphs.
func TestSampleBudgetCoversAllPairs(t *testing.T) {
	g := gen.Path(4)
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stretch(g, s, nil, Options{Sample: 999})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampled {
		t.Fatal("full-coverage budget still marked sampled")
	}
	if rep.Pairs != 12 {
		t.Fatalf("measured %d pairs, want 12", rep.Pairs)
	}
}

// TestFirstErrorDeterministic checks that the engine reports the error of
// the smallest failing pair in row-major order, whatever the worker
// count.
func TestFirstErrorDeterministic(t *testing.T) {
	n := 20
	f := func(u, v graph.NodeID) (int32, int32, int, error) {
		if u >= 5 && v%3 == 0 {
			return 0, 0, 0, fmt.Errorf("pair %d->%d failed", u, v)
		}
		return 1, 1, 1, nil
	}
	want := "pair 5->0 failed"
	for _, workers := range []int{1, 2, 6} {
		_, err := Pairs(n, f, Options{Workers: workers})
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: error %v, want %q", workers, err, want)
		}
	}
}

func TestTrivialOrders(t *testing.T) {
	for n := 0; n <= 1; n++ {
		rep, err := Pairs(n, func(u, v graph.NodeID) (int32, int32, int, error) {
			t.Fatalf("pair func called for n=%d", n)
			return 0, 0, 0, nil
		}, Options{})
		if err != nil || rep.Pairs != 0 {
			t.Fatalf("n=%d: rep=%+v err=%v", n, rep, err)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.add(1.0)  // bucket 0
	h.add(1.24) // bucket 0
	h.add(1.25) // bucket 1
	h.add(3.99) // bucket 11
	h.add(4.0)  // overflow
	h.add(97)   // overflow
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[11] != 1 || h.Buckets[12] != 2 {
		t.Fatalf("bucket counts %v", h.Buckets)
	}
	if lo, hi := BucketBounds(0); lo != 1 || hi != 1.25 {
		t.Fatalf("bucket 0 bounds [%v, %v)", lo, hi)
	}
	if lo, hi := BucketBounds(HistBuckets - 1); lo != 4 || hi != -1 {
		t.Fatalf("overflow bucket bounds [%v, %v)", lo, hi)
	}
}

// TestParseDistMode pins the flag spellings the CLIs accept.
func TestParseDistMode(t *testing.T) {
	for s, want := range map[string]DistMode{
		"": DistDense, "dense": DistDense, "stream": DistStream,
	} {
		got, err := ParseDistMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseDistMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	// One spelling per mode: the retired "auto" alias and "cache" backend
	// are unknown values like any other junk.
	for _, s := range []string{"auto", "cache", "turbo", "Dense"} {
		_, err := ParseDistMode(s)
		if err == nil || !strings.Contains(err.Error(), "want dense or stream") {
			t.Fatalf("ParseDistMode(%q) err = %v, want an unknown-mode error naming dense or stream", s, err)
		}
	}
}

// TestOptionsSourcePrecedence pins the backend resolution order:
// explicit Distances beats DistMode beats the apsp argument beats a
// fresh dense build.
func TestOptionsSourcePrecedence(t *testing.T) {
	g := gen.Grid2D(3, 3)
	apsp := shortest.NewAPSPParallel(g, 0)
	explicit := shortest.NewStreamSource(g)
	mustSource := func(src shortest.DistanceSource, err error) shortest.DistanceSource {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	if src := mustSource((Options{Distances: explicit, DistMode: DistDense}).Source(g, apsp)); src != shortest.DistanceSource(explicit) {
		t.Fatal("explicit Distances did not win")
	}
	if _, ok := mustSource((Options{DistMode: DistStream}).Source(g, apsp)).(*shortest.StreamSource); !ok {
		t.Fatal("DistStream did not override the apsp argument")
	}
	if src := mustSource((Options{}).Source(g, apsp)); src != shortest.DistanceSource(apsp) {
		t.Fatal("default (dense) mode ignored the provided dense table")
	}
	if src := mustSource((Options{}).Source(g, nil)); src.Order() != g.Order() {
		t.Fatal("default (dense) mode with nil apsp did not build a dense table")
	}
	if _, err := (Options{DistMode: DistMode(99)}).Source(g, apsp); err == nil {
		t.Fatal("unknown mode silently resolved a backend instead of erroring")
	}
}

// TestSourceForWeighted pins the weighted resolution: every mode yields a
// Dijkstra-backed source, and an unservable mode is an explicit error —
// never a silent dense fallback.
func TestSourceForWeighted(t *testing.T) {
	g := gen.Grid2D(3, 3)
	w := shortest.UniformWeights(g)
	if src, err := (Options{DistMode: DistStream}).SourceFor(g, w, nil); err != nil {
		t.Fatal(err)
	} else if _, ok := src.(*shortest.StreamSource); !ok {
		t.Fatalf("weighted stream mode resolved %T", src)
	}
	if src, err := (Options{}).SourceFor(g, w, nil); err != nil {
		t.Fatal(err)
	} else if _, ok := src.(*shortest.APSP); !ok {
		t.Fatalf("weighted default (dense) mode resolved %T", src)
	}
	if _, err := (Options{DistMode: DistMode(99)}).SourceFor(g, w, nil); err == nil {
		t.Fatal("unknown weighted mode resolved a backend instead of erroring")
	}
	bad := shortest.Weights{{1}} // wrong shape: must surface, not fall back dense
	if _, err := (Options{DistMode: DistStream}).SourceFor(g, bad, nil); err == nil {
		t.Fatal("malformed weights resolved a streaming backend")
	}
}

// TestStretchStreamDisconnected checks the streaming path reports the
// same deterministic error as dense on a disconnected instance.
func TestStretchStreamDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	// Real schemes reject forests at construction, so use a toy function
	// that delivers within each component; the cross-component pairs must
	// then fail on the Unreachable distance, on every backend.
	loop := funcScheme{}
	for _, mode := range []DistMode{DistDense, DistStream} {
		_, errM := Stretch(g, loop, nil, Options{DistMode: mode, Workers: 2})
		if errM == nil {
			t.Fatalf("%v: disconnected pair did not error", mode)
		}
	}
}

// TestDeliveryClassifiesDisconnection: where Stretch aborts at the
// first cross-component pair, Delivery counts every pair — delivered
// within a component, detected and classified by reason across — with
// the same outcome on every backend and worker count.
func TestDeliveryClassifiesDisconnection(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	want := Outcome{Pairs: 12, Connected: 4, Disconnected: 8, Delivered: 4, DetectedDisconnect: 8, MeanStretch: 1, MaxStretch: 1}
	want.Failures[routing.ReasonLoop] = 8 // funcScheme bounces inside its component
	for _, mode := range []DistMode{DistDense, DistStream} {
		for _, workers := range []int{1, 3} {
			got, err := Delivery(g, funcScheme{}, nil, Options{DistMode: mode, Workers: workers})
			if err != nil || got != want {
				t.Fatalf("%v workers=%d: outcome %+v err %v, want %+v", mode, workers, got, err, want)
			}
		}
	}
}

// TestDeliveryUntypedFailureAborts: a failure without a typed reason
// cannot be classified, so Delivery's classifier rejects it on a
// disconnected pair of a path graph just as on a connected one, instead
// of filing it as a detected disconnection under no reason. The
// simulator types every failure a routing.Function can cause, so the
// classifier is driven directly.
func TestDeliveryUntypedFailureAborts(t *testing.T) {
	g := gen.Path(3)
	g.RemoveEdge(1, 2)
	g.Freeze()
	row := shortest.BFS(g, 0)
	plain := errors.New("plain failure")
	for _, v := range []graph.NodeID{1, 2} { // connected, then disconnected
		for _, fail := range []error{plain, &routing.RouteError{}} {
			var o Outcome
			if _, err := o.file(0, v, row[v], fail); !errors.Is(err, fail) {
				t.Fatalf("0->%d (distance %d): failure %v filed, error %v", v, row[v], fail, err)
			}
		}
	}
}

// funcScheme delivers only within a component pair (0,1)/(2,3) by port 1.
type funcScheme struct{}

func (funcScheme) Init(src, dst graph.NodeID) routing.Header { return dst }
func (funcScheme) Port(x graph.NodeID, h routing.Header) graph.Port {
	if x == h.(graph.NodeID) {
		return graph.NoPort
	}
	return 1
}
func (funcScheme) Next(x graph.NodeID, h routing.Header) routing.Header { return h }

// loopScheme always forwards on port 1 and never delivers.
type loopScheme struct{}

func (loopScheme) Init(src, dst graph.NodeID) routing.Header            { return dst }
func (loopScheme) Port(x graph.NodeID, h routing.Header) graph.Port     { return 1 }
func (loopScheme) Next(x graph.NodeID, h routing.Header) routing.Header { return h }

// constBits charges every router the same number of bits.
type constBits int

func (c constBits) LocalBits(graph.NodeID) int { return int(c) }

// TestRowAccFillsCacheLines pins rowAcc to whole cache lines, so
// workers filling adjacent rows never write to one line.
func TestRowAccFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(rowAcc{}); size%64 != 0 {
		t.Fatalf("rowAcc is %d bytes, not a multiple of 64", size)
	}
}
