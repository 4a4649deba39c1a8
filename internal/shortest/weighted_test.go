package shortest

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func randomWeights(g *graph.Graph, r *xrand.Rand, maxW int) Weights {
	return RandomWeights(g, maxW, r)
}

func TestUniformWeightsMatchBFS(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%30) + 2
		g := gen.RandomConnected(n, 0.2, xrand.New(seed))
		w := UniformWeights(g)
		a, err := NewWeightedAPSPParallel(g, w, 0)
		if err != nil {
			return false
		}
		b := NewAPSPParallel(g, 0)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if a.Dist(graph.NodeID(u), graph.NodeID(v)) != b.Dist(graph.NodeID(u), graph.NodeID(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraTriangleAndSymmetry(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%25) + 3
		r := xrand.New(seed)
		g := gen.RandomConnected(n, 0.25, r)
		w := randomWeights(g, r, 9)
		a, err := NewWeightedAPSPParallel(g, w, 0)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if a.Dist(graph.NodeID(u), graph.NodeID(v)) != a.Dist(graph.NodeID(v), graph.NodeID(u)) {
					return false
				}
				for x := 0; x < n; x++ {
					if a.Dist(graph.NodeID(u), graph.NodeID(v)) >
						a.Dist(graph.NodeID(u), graph.NodeID(x))+a.Dist(graph.NodeID(x), graph.NodeID(v)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraKnownValues(t *testing.T) {
	// Path 0-1-2 with weights 5 and 2: d(0,2) = 7, not hop count 2.
	g := gen.Path(3)
	w := UniformWeights(g)
	w[0][0] = 5
	w[1][g.BackPort(0, 1)-1] = 5
	p12 := g.PortTo(1, 2)
	w[1][p12-1] = 2
	w[2][g.BackPort(1, p12)-1] = 2
	a, err := NewWeightedAPSPParallel(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Dist(0, 2); d != 7 {
		t.Fatalf("d(0,2) = %d, want 7", d)
	}
}

func TestWeightsValidateCatchesAsymmetry(t *testing.T) {
	g := gen.Cycle(4)
	w := UniformWeights(g)
	w[0][0] = 3 // reverse arc still 1
	if err := w.Validate(g); err == nil {
		t.Fatal("asymmetric weights accepted")
	}
}

func TestWeightsValidateCatchesNonPositive(t *testing.T) {
	g := gen.Cycle(4)
	w := UniformWeights(g)
	w[1][0] = 0
	if err := w.Validate(g); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestWeightedFirstArcs(t *testing.T) {
	// Square 0-1-2-3-0 with one heavy edge: first arcs route around it.
	g := gen.Cycle(4)
	r := xrand.New(1)
	_ = r
	w := UniformWeights(g)
	// Make edge {0,1} cost 10.
	p01 := g.PortTo(0, 1)
	w[0][p01-1] = 10
	w[1][g.BackPort(0, p01)-1] = 10
	a, err := NewWeightedAPSPParallel(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// d(0,1) should be 3 via 0-3-2-1.
	if d := a.Dist(0, 1); d != 3 {
		t.Fatalf("d(0,1) = %d, want 3", d)
	}
	arcs := WeightedFirstArcs(g, a, w, 0, 1)
	if len(arcs) != 1 || g.Neighbor(0, arcs[0]) != 3 {
		t.Fatalf("weighted first arcs %v should route via vertex 3", arcs)
	}
}

// TestDijkstraSaturatesNearMaxInt32 is the overflow regression: with arc
// costs near MaxInt32 the old int32 relaxation wrapped negative and
// corrupted every distance downstream of the wrap. Distances must stay
// non-negative and monotone along the path, with costs at or past the
// Unreachable sentinel saturating to it.
func TestDijkstraSaturatesNearMaxInt32(t *testing.T) {
	g := gen.Path(4)
	w := UniformWeights(g)
	const big = math.MaxInt32/2 - 1
	for u := 0; u < 3; u++ {
		p := g.PortTo(graph.NodeID(u), graph.NodeID(u+1))
		w[u][p-1] = big
		w[u+1][g.BackPort(graph.NodeID(u), p)-1] = big
	}
	a, err := NewWeightedAPSPParallel(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := int32(0)
	for v := 0; v < 4; v++ {
		d := a.Dist(0, graph.NodeID(v))
		if d < 0 {
			t.Fatalf("d(0,%d) = %d went negative: int32 relaxation wrapped", v, d)
		}
		if d < prev {
			t.Fatalf("d(0,%d) = %d < d(0,%d) = %d: distances not monotone along the path", v, d, v-1, prev)
		}
		prev = d
	}
	if d := a.Dist(0, 1); d != big {
		t.Fatalf("d(0,1) = %d, want %d", d, int32(big))
	}
	if d := a.Dist(0, 2); d != 2*big {
		t.Fatalf("d(0,2) = %d, want %d", d, int32(2*big))
	}
	if d := a.Dist(0, 3); d != Unreachable {
		t.Fatalf("d(0,3) = %d, want saturation at Unreachable (true cost 3*%d overflows int32)", d, int64(big))
	}
	// The pooled build saturates exactly as a single Dijkstra does.
	par, err := NewWeightedAPSPParallel(g, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := Dijkstra(g, w, 0)
	for v := 0; v < 4; v++ {
		if par.Dist(0, graph.NodeID(v)) != ref[v] {
			t.Fatalf("parallel saturation diverges at vertex %d", v)
		}
	}
}

// TestWeightedFirstArcsNearMaxWeights pins the int64 membership test at
// the top of the representable range: the minimum-cost first arc is
// still found when d(x,v) + w(u,x) sits one below Unreachable.
func TestWeightedFirstArcsNearMaxWeights(t *testing.T) {
	g := gen.Path(3)
	w := UniformWeights(g)
	p01 := g.PortTo(0, 1)
	w[0][p01-1] = math.MaxInt32 - 2
	w[1][g.BackPort(0, p01)-1] = math.MaxInt32 - 2
	a, err := NewWeightedAPSPParallel(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Dist(0, 2); d != math.MaxInt32-1 {
		t.Fatalf("d(0,2) = %d, want MaxInt32-1", d)
	}
	arcs := WeightedFirstArcs(g, a, w, 0, 2)
	if len(arcs) != 1 || g.Neighbor(0, arcs[0]) != 1 {
		t.Fatalf("first arcs %v, want the single port toward vertex 1", arcs)
	}
}

// TestWeightsValidateMalformedRowErrors is the shape regression: a row
// shorter than its vertex's degree used to panic inside the symmetry
// probe of an EARLIER vertex (w[v][back-1] read before v's own length
// was checked); it must be a plain error.
func TestWeightsValidateMalformedRowErrors(t *testing.T) {
	g := gen.Cycle(4)
	w := UniformWeights(g)
	w[3] = w[3][:0] // vertex 0's symmetry probe into w[3] would be out of range
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Validate panicked on malformed weights: %v", r)
		}
	}()
	if err := w.Validate(g); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := NewWeightedAPSPParallel(g, w, 2); err == nil {
		t.Fatal("NewWeightedAPSPParallel accepted malformed weights")
	}
}

// TestDijkstraIntoReusesScratch checks the zero-allocation steady state
// the weighted streaming reader depends on, mirroring the BFSInto test.
func TestDijkstraIntoReusesScratch(t *testing.T) {
	g := gen.RandomConnected(32, 0.2, xrand.New(7))
	w := randomWeights(g, xrand.New(8), 9)
	dist, pq := DijkstraInto(g, w, 0, nil, nil)
	d2, q2 := DijkstraInto(g, w, 4, dist, pq)
	if &d2[0] != &dist[0] || &q2[:1][0] != &pq[:1][0] {
		t.Fatal("DijkstraInto reallocated buffers that were large enough")
	}
	want := Dijkstra(g, w, 4)
	for v := range want {
		if d2[v] != want[v] {
			t.Fatalf("reused-scratch row differs from fresh Dijkstra at %d", v)
		}
	}
}

// TestParallelAPSPMatchesSerial pins the batched table to the serial
// one-BFS-per-row reference at several worker counts.
func TestParallelAPSPMatchesSerial(t *testing.T) {
	g := gen.RandomConnected(200, 0.05, xrand.New(3))
	serial := make([][]int32, 200)
	for u := range serial {
		serial[u] = BFS(g, graph.NodeID(u))
	}
	for _, workers := range []int{0, 1, 4, 13} {
		par := NewAPSPParallel(g, workers)
		for u := 0; u < 200; u++ {
			for v := 0; v < 200; v++ {
				if serial[u][v] != par.Dist(graph.NodeID(u), graph.NodeID(v)) {
					t.Fatalf("workers=%d: mismatch at (%d,%d)", workers, u, v)
				}
			}
		}
	}
}

func TestParallelAPSPEmpty(t *testing.T) {
	g := graph.New(0)
	a := NewAPSPParallel(g, 4)
	if a.Order() != 0 {
		t.Fatal("empty parallel APSP wrong")
	}
}
