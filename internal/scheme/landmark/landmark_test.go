package landmark

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/evaluate"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func TestLandmarkDeliversEverywhere(t *testing.T) {
	g := gen.RandomConnected(60, 0.08, xrand.New(5))
	s, err := NewStreamed(g, Options{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluate.Stretch(g, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestLandmarkStretchAtMost3Property(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%50) + 4
		g := gen.RandomConnected(n, 0.1, xrand.New(seed))
		s, err := NewStreamed(g, Options{Seed: seed}, 0)
		if err != nil {
			return false
		}
		rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
		if err != nil {
			return false
		}
		return rep.Max <= 3.0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLandmarkStretchOnStructuredGraphs(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"torus": gen.Torus2D(6, 6),
		"cube":  gen.Hypercube(5),
		"tree":  gen.RandomTree(50, xrand.New(2)),
	} {
		s, err := NewStreamed(g, Options{Seed: 3}, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Max > 3.0 {
			t.Fatalf("%s: landmark stretch %v > 3", name, rep.Max)
		}
	}
}

func TestLandmarkMemoryBelowTables(t *testing.T) {
	// The Table 1 story: at stretch <= 3 the landmark scheme's worst
	// router must undercut full tables on a large graph.
	g := gen.RandomConnected(300, 0.03, xrand.New(9))
	s, err := NewStreamed(g, Options{Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := evaluate.Memory(g, s, evaluate.Options{})
	// Full tables would cost at least (n-1) * 1 bits > 299; the landmark
	// scheme should be comfortably below n log n / 4 on this sparse graph.
	tableBits := (g.Order() - 1) * 3
	if mem.LocalBits >= tableBits {
		t.Fatalf("landmark max router %d bits, tables floor %d", mem.LocalBits, tableBits)
	}
}

func TestNumLandmarksDefault(t *testing.T) {
	g := gen.RandomConnected(100, 0.05, xrand.New(1))
	s, err := NewStreamed(g, Options{Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := s.NumLandmarks()
	// ceil(sqrt(100 * log2 101)) = ceil(sqrt(666)) = 26.
	if k < 20 || k > 32 {
		t.Fatalf("default landmark count %d out of expected band", k)
	}
}

func TestExplicitLandmarkCount(t *testing.T) {
	g := gen.RandomConnected(50, 0.1, xrand.New(3))
	s, err := NewStreamed(g, Options{NumLandmarks: 5, Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLandmarks() != 5 {
		t.Fatalf("landmark count %d, want 5", s.NumLandmarks())
	}
	if _, err := evaluate.Stretch(g, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestAllNodesLandmarks(t *testing.T) {
	// Degenerate case |L| = n: every cluster is empty and routing is pure
	// landmark tables; still correct, stretch 1 (l(t) = t).
	g := gen.Cycle(12)
	s, err := NewStreamed(g, Options{NumLandmarks: 12, Seed: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("all-landmark scheme stretch %v, want 1", rep.Max)
	}
}

func TestSingleLandmark(t *testing.T) {
	g := gen.RandomConnected(30, 0.1, xrand.New(6))
	s, err := NewStreamed(g, Options{NumLandmarks: 1, Seed: 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max > 3.0 {
		t.Fatalf("single-landmark stretch %v > 3", rep.Max)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	g1 := gen.RandomConnected(40, 0.1, xrand.New(7))
	g2 := gen.RandomConnected(40, 0.1, xrand.New(7))
	s1, _ := NewStreamed(g1, Options{Seed: 9}, 0)
	s2, _ := NewStreamed(g2, Options{Seed: 9}, 0)
	if s1.NumLandmarks() != s2.NumLandmarks() || s1.MaxCluster() != s2.MaxCluster() {
		t.Fatal("landmark construction not deterministic")
	}
}

func TestClusterDefinition(t *testing.T) {
	// Clusters exclude every vertex at distance >= its landmark distance;
	// with |L| = n clusters are empty.
	g := gen.Cycle(10)
	s, err := NewStreamed(g, Options{NumLandmarks: 10, Seed: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxCluster() != 0 {
		t.Fatalf("clusters should be empty when every node is a landmark, got max %d", s.MaxCluster())
	}
}

// TestStreamedBitIdenticalToDense pins the NewStreamed contract: for the
// same Options it must reproduce the dense reference newDense exactly —
// landmark set, nearest assignments, every table entry and every
// LocalBits value — across families and worker counts, without the n²
// table. The cases stress the per-destination ball search: faulted
// graphs whose removed edges leave dead ports for the search to skip,
// one landmark (balls reach across the graph) and |L| = n (every ball
// is empty). The inputs include every family of the root conformance
// matrix, each also after the seeded connectivity-preserving edge kill
// the fault suites draw: a landmark fault rebuilds with NewStreamed, so
// this pins the post-fault scheme against a dense rebuild on the
// faulted graph.
func TestStreamedBitIdenticalToDense(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random(70,.09)":        gen.RandomConnected(70, 0.09, xrand.New(21)),
		"tree(65)":              gen.RandomTree(65, xrand.New(22)),
		"torus 7x7":             gen.Torus2D(7, 7),
		"petersen":              gen.Petersen(),
		"random(70,.09)-faults": removeEdgesKeepingConnected(gen.RandomConnected(70, 0.09, xrand.New(23)), 3),
	}
	if graphs["random(70,.09)-faults"].Size() == gen.RandomConnected(70, 0.09, xrand.New(23)).Size() {
		t.Fatal("faulted case removed no edge")
	}
	for name, g := range map[string]*graph.Graph{
		"random(64,.1)":   gen.RandomConnected(64, 0.1, xrand.New(41)),
		"tree(63)":        gen.RandomTree(63, xrand.New(42)),
		"torus 8x8":       gen.Torus2D(8, 8),
		"hypercube H6":    gen.Hypercube(6),
		"K24":             gen.Complete(24),
		"outerplanar(60)": gen.MaximalOuterplanar(60, xrand.New(43)),
		"petersen":        gen.Petersen(),
	} {
		graphs[name] = g
		if faulted := killEdges(g, 0.08, 0x1a5d); faulted != nil {
			graphs[name+" faulted"] = faulted
		}
	}
	for name, g := range graphs {
		opts := []Options{
			{Seed: 3},
			{Seed: 9, NumLandmarks: 5},
			{Seed: 4, NumLandmarks: 1},
			{Seed: 5, NumLandmarks: g.Order()},
		}
		for _, opt := range opts {
			dense, err := newDense(g, opt)
			if err != nil {
				t.Fatalf("%s: dense: %v", name, err)
			}
			for _, workers := range []int{1, 3, 8} {
				st, err := NewStreamed(g, opt, workers)
				if err != nil {
					t.Fatalf("%s workers=%d: streamed: %v", name, workers, err)
				}
				if err := sameScheme(st, dense); err != nil {
					t.Fatalf("%s %+v workers=%d: %v", name, opt, workers, err)
				}
			}
		}
	}
}

// sameScheme reports the first table in which got differs from want.
func sameScheme(got, want *Scheme) error {
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"landmark sets", got.landmarks, want.landmarks},
		{"nearest", got.nearest, want.nearest},
		{"lmPort", got.lmPort, want.lmPort},
		{"clusters", got.cluster, want.cluster},
		{"pathPorts", got.pathPorts, want.pathPorts},
		{"LocalBits", got.bits, want.bits},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Errorf("%s differ", c.name)
		}
	}
	return nil
}

// killEdges returns a faulted clone of g: the largest seeded
// connectivity-preserving kill of at most frac·|E| edges (at least one),
// or nil when no edge can go — the plan the root fault suites draw.
func killEdges(g *graph.Graph, frac float64, seed uint64) *graph.Graph {
	k := int(frac * float64(g.Size()))
	if k < 1 {
		k = 1
	}
	for ; k >= 1; k-- {
		plan, err := faults.NewPlan(g, faults.Options{
			Mode: faults.KillEdges, Count: k, Seed: seed, KeepConnected: true,
		})
		if err == nil {
			h := g.Clone()
			plan.Apply(h)
			return h
		}
	}
	return nil
}

// removeEdgesKeepingConnected removes every stride-th edge of g whose
// removal keeps g connected, leaving graph.DeadEnd holes at the removed
// ports, and returns g.
func removeEdgesKeepingConnected(g *graph.Graph, stride int) *graph.Graph {
	for i, e := range g.Edges() {
		if i%stride != 0 {
			continue
		}
		h := g.Clone()
		h.RemoveEdge(e[0], e[1])
		if connected(h) {
			g.RemoveEdge(e[0], e[1])
		}
	}
	return g
}

func connected(g *graph.Graph) bool {
	for _, d := range shortest.BFS(g, 0) {
		if d == shortest.Unreachable {
			return false
		}
	}
	return true
}

// fuzzLandmarkGraph decodes a connected graph with dead ports and a
// landmark count from bytes: data[0] sets NumLandmarks (0 selects the
// default; counts above n clamp to n), data[1] the order (2..41), and
// each later byte pair (a, b) with a != b toggles the edge {a, b} —
// added when absent, removed when present. Vertex i that the toggles
// leave outside vertex 0's component is then joined by the edge
// {i-1, i}, so every input decodes to a connected graph whose removed
// edges stay as holes.
func fuzzLandmarkGraph(data []byte) (*graph.Graph, Options) {
	if len(data) < 2 {
		return nil, Options{}
	}
	n := 2 + int(data[1])%40
	g := graph.New(n)
	for rest := data[2:]; len(rest) >= 2; rest = rest[2:] {
		a, b := graph.NodeID(int(rest[0])%n), graph.NodeID(int(rest[1])%n)
		switch {
		case a == b:
		case g.HasEdge(a, b):
			g.RemoveEdge(a, b)
		default:
			g.AddEdge(a, b)
		}
	}
	for i := 1; i < n; i++ {
		if shortest.BFS(g, 0)[i] == shortest.Unreachable {
			g.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	return g, Options{NumLandmarks: int(data[0]) % (n + 2), Seed: uint64(len(data))}
}

// FuzzNewStreamed pins NewStreamed to newDense on arbitrary small connected
// graphs with dead ports, at landmark counts from one to n, on one and
// on three workers.
func FuzzNewStreamed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, opt := fuzzLandmarkGraph(data)
		if g == nil {
			return
		}
		dense, err := newDense(g, opt)
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		for _, workers := range []int{1, 3} {
			st, err := NewStreamed(g, opt, workers)
			if err != nil {
				t.Fatalf("workers=%d: streamed: %v", workers, err)
			}
			if err := sameScheme(st, dense); err != nil {
				t.Fatalf("%+v workers=%d: %v", opt, workers, err)
			}
		}
	})
}

// TestStreamedDisconnectedErrors pins the connectivity contract.
func TestStreamedDisconnectedErrors(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, err := NewStreamed(g, Options{Seed: 1}, 2); err == nil {
		t.Fatal("streamed construction accepted a disconnected graph")
	}
}
