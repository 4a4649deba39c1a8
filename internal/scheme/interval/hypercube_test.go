package interval

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/coding"
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

// payloadRoundTrip encodes s with the wire codec and decodes it against
// s's graph, reporting whether labels and every router's port
// assignment come back unchanged.
func payloadRoundTrip(s *Scheme) error {
	w := coding.NewBitWriter()
	s.EncodePayload(w)
	d, err := DecodePayload(coding.NewBitReader(w.Bytes(), w.Len()), s.g)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(d.label, s.label) {
		return fmt.Errorf("labels %v, want %v", d.label, s.label)
	}
	for x := range s.assign {
		for lab := range s.assign[x] {
			if int32(lab) != s.label[x] && d.assign[x][lab] != s.assign[x][lab] {
				return fmt.Errorf("node %d label %d: port %d vs %d", x, lab, d.assign[x][lab], s.assign[x][lab])
			}
		}
	}
	return nil
}

func TestEncodeDecodeNodeRoundTrip(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%25) + 3
		g := gen.RandomConnected(n, 0.25, xrand.New(seed))
		s, err := New(g, nil, Options{Policy: RunGreedy})
		if err != nil {
			return false
		}
		return payloadRoundTrip(s) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeNodeSizeMatchesLocalBits pins the wire payload's per-router
// spans to the metered code: router x's interval section plus its
// ceil(log2 n)-bit own label (carried in the shared label section) is
// exactly LocalBits(x).
func TestEncodeNodeSizeMatchesLocalBits(t *testing.T) {
	g := gen.RandomConnected(30, 0.2, xrand.New(6))
	s, err := New(g, nil, Options{Policy: RunGreedy})
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := s.EncodePayload(coding.NewBitWriter())
	own := coding.BitsFor(30)
	for x := 0; x < 30; x++ {
		if bits := s.LocalBits(graph.NodeID(x)); rb[x]+own != bits {
			t.Fatalf("node %d: %d+%d bits encoded vs %d declared bits", x, rb[x], own, bits)
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
	if err := payloadRoundTrip(s); err != nil {
		t.Fatal(err)
	}
}
