package table

import (
	"testing"
	"testing/quick"

	"repro/internal/coding"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func TestTablesRouteShortest(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"petersen": gen.Petersen(),
		"grid":     gen.Grid2D(4, 5),
		"cube":     gen.Hypercube(4),
		"random":   gen.RandomConnected(30, 0.15, xrand.New(1)),
	} {
		s, err := New(g, nil, MinPort)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Max != 1.0 {
			t.Fatalf("%s: routing tables have stretch %v, want 1", name, rep.Max)
		}
	}
}

func TestTablesRejectDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, err := New(g, nil, MinPort); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestPortEntryMatchesRouting(t *testing.T) {
	g := gen.RandomConnected(20, 0.2, xrand.New(3))
	s, err := New(g, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			if u == v {
				continue
			}
			h := s.Init(graph.NodeID(u), graph.NodeID(v))
			if s.Port(graph.NodeID(u), h) != s.PortEntry(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("Port and PortEntry disagree at (%d,%d)", u, v)
			}
		}
	}
}

func TestRunGreedyStillShortest(t *testing.T) {
	g := gen.RandomConnected(25, 0.2, xrand.New(9))
	s, err := New(g, nil, RunGreedy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("RunGreedy tables have stretch %v", rep.Max)
	}
}

func TestRunGreedyBoundedByRaw(t *testing.T) {
	// RunGreedy is a compression HEURISTIC: it may win or lose against
	// MinPort on individual graphs (greedy run extension is not globally
	// optimal), but every node's code is bounded by the raw row plus the
	// flag bit under either policy — that is the guarantee.
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%20) + 4
		g := gen.RandomConnected(n, 0.3, xrand.New(seed))
		apsp := shortest.NewAPSPParallel(g, 0)
		for _, pol := range []Policy{MinPort, RunGreedy} {
			s, err := New(g, apsp, pol)
			if err != nil {
				return false
			}
			for x := 0; x < n; x++ {
				raw := (n - 1) * bitsForDeg(g.Degree(graph.NodeID(x)))
				if s.LocalBits(graph.NodeID(x)) > raw+1 {
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

func bitsForDeg(d int) int {
	w := 0
	for v := d - 1; v > 0; v >>= 1 {
		w++
	}
	return w
}

func TestRunGreedyWinsOnRunFriendlyGraph(t *testing.T) {
	// Deterministic regression for the heuristic's purpose: on a star
	// with a long tail, destinations served by the same port are label-
	// contiguous, and RunGreedy compresses at least as well as MinPort.
	g := gen.Caterpillar(32, 32)
	apsp := shortest.NewAPSPParallel(g, 0)
	a, err := New(g, apsp, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, apsp, RunGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if evaluate.Memory(g, b, evaluate.Options{}).GlobalBits > evaluate.Memory(g, a, evaluate.Options{}).GlobalBits {
		t.Fatal("RunGreedy lost to MinPort on a run-friendly graph")
	}
}

func TestLocalBitsScale(t *testing.T) {
	// On a random dense graph the raw coding dominates:
	// bits per node ≈ (n-1)·ceil(log2 deg) plus the flag.
	g := gen.Complete(17)
	s, err := New(g, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	// K_n tables are a single run (port toward v is the direct edge — all
	// different), so raw coding: 16 entries * 4 bits + 1.
	want := 16*4 + 1
	for x := 0; x < 17; x++ {
		if got := s.LocalBits(graph.NodeID(x)); got > want {
			t.Fatalf("LocalBits(%d) = %d, exceeds raw bound %d", x, got, want)
		}
	}
}

func TestCycleTablesCompress(t *testing.T) {
	// On a cycle each router's table is two long runs (clockwise half,
	// counterclockwise half), so RLE wins by a wide margin.
	g := gen.Cycle(64)
	s, err := New(g, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	rep := evaluate.Memory(g, s, evaluate.Options{})
	raw := 63*1 + 1 // 63 destinations, 1 bit per port (degree 2)
	if rep.LocalBits >= raw {
		t.Fatalf("cycle tables did not compress: %d >= %d", rep.LocalBits, raw)
	}
}

// TestEncodeDecodeRowRoundTrip round-trips every router's row through
// the standalone row code (AppendPortRowCode, DecodeRowFrom) on one
// shared writer and reader, as the delta path uses them.
func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%25) + 4
		g := gen.RandomConnected(n, 0.25, xrand.New(seed))
		s, err := New(g, nil, MinPort)
		if err != nil {
			return false
		}
		w := coding.NewBitWriter()
		for x := 0; x < n; x++ {
			AppendPortRowCode(w, s.ports[x], graph.NodeID(x), g.Degree(graph.NodeID(x)))
		}
		r := coding.NewBitReader(w.Bytes(), w.Len())
		for x := 0; x < n; x++ {
			row, err := DecodeRowFrom(r, n, graph.NodeID(x), g.Degree(graph.NodeID(x)))
			if err != nil {
				return false
			}
			for v := 0; v < n; v++ {
				if v != x && row[v] != s.PortEntry(graph.NodeID(x), graph.NodeID(v)) {
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

// TestEncodedSizeMatchesLocalBits pins the wire payload's per-router
// spans to the metered code: the row EncodePayload writes for x is
// exactly LocalBits(x) bits.
func TestEncodedSizeMatchesLocalBits(t *testing.T) {
	g := gen.RandomConnected(30, 0.2, xrand.New(17))
	s, err := New(g, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := s.EncodePayload(coding.NewBitWriter())
	for x := 0; x < 30; x++ {
		if bits := s.LocalBits(graph.NodeID(x)); rb[x] != bits {
			t.Fatalf("node %d: %d bits encoded vs %d bits declared", x, rb[x], bits)
		}
	}
}

func TestName(t *testing.T) {
	g := gen.Cycle(4)
	s, _ := New(g, nil, MinPort)
	if s.Name() == "" {
		t.Fatal("empty scheme name")
	}
}
