package interval

import (
	"testing"
	"testing/quick"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestHypercube1IRSOneIntervalPerArc(t *testing.T) {
	for d := 1; d <= 7; d++ {
		g := gen.Hypercube(d)
		s, err := NewHypercube1IRS(g, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if k := s.MaxIntervalsPerArc(); k != 1 {
			t.Fatalf("d=%d: %d intervals per arc, want exactly 1", d, k)
		}
	}
}

func TestHypercube1IRSShortest(t *testing.T) {
	g := gen.Hypercube(5)
	s, err := NewHypercube1IRS(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("hypercube 1-IRS stretch %v", rep.Max)
	}
}

func TestHypercube1IRSMemoryLogSquared(t *testing.T) {
	// d arcs × 1 interval × 2 log n bits = O(log^2 n) per router.
	d := 8
	g := gen.Hypercube(d)
	s, err := NewHypercube1IRS(g, d)
	if err != nil {
		t.Fatal(err)
	}
	mem := evaluate.Memory(g, s, evaluate.Options{})
	if mem.LocalBits > 4*d*d+8*d {
		t.Fatalf("H_%d 1-IRS needs %d bits, want O(d^2)", d, mem.LocalBits)
	}
}

func TestHypercube1IRSRejectsWrongGraph(t *testing.T) {
	if _, err := NewHypercube1IRS(gen.Cycle(8), 3); err == nil {
		t.Fatal("cycle accepted as hypercube")
	}
	g := gen.Hypercube(3)
	g.PermutePorts(0, []int{1, 0, 2})
	if _, err := NewHypercube1IRS(g, 3); err == nil {
		t.Fatal("scrambled hypercube accepted")
	}
}

func TestEncodeDecodeNodeRoundTrip(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%25) + 3
		g := gen.RandomConnected(n, 0.25, xrand.New(seed))
		s, err := New(g, nil, Options{Policy: RunGreedy})
		if err != nil {
			return false
		}
		for x := 0; x < n; x++ {
			buf := s.EncodeNode(graph.NodeID(x))
			own, assign, err := DecodeNode(buf, n, g.Degree(graph.NodeID(x)))
			if err != nil {
				return false
			}
			if own != s.label[x] {
				return false
			}
			for lab := 0; lab < n; lab++ {
				if int32(lab) == own {
					continue
				}
				if assign[lab] != s.assign[x][lab] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeNodeSizeMatchesLocalBits(t *testing.T) {
	g := gen.RandomConnected(30, 0.2, xrand.New(6))
	s, err := New(g, nil, Options{Policy: RunGreedy})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 30; x++ {
		buf := s.EncodeNode(graph.NodeID(x))
		bits := s.LocalBits(graph.NodeID(x))
		if len(buf) != (bits+7)/8 {
			t.Fatalf("node %d: %d bytes vs %d declared bits", x, len(buf), bits)
		}
	}
}

func TestHypercube1IRSEncodeRoundTrip(t *testing.T) {
	d := 5
	g := gen.Hypercube(d)
	s, err := NewHypercube1IRS(g, d)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Order()
	for x := 0; x < n; x++ {
		buf := s.EncodeNode(graph.NodeID(x))
		own, assign, err := DecodeNode(buf, n, d)
		if err != nil {
			t.Fatal(err)
		}
		if own != int32(x) {
			t.Fatalf("own label %d, want %d", own, x)
		}
		for lab := 0; lab < n; lab++ {
			if lab == x {
				continue
			}
			if assign[lab] != s.assign[x][lab] {
				t.Fatalf("node %d label %d: port %d vs %d", x, lab, assign[lab], s.assign[x][lab])
			}
		}
	}
}
