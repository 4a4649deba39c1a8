package kcomplete

import (
	"testing"

	"repro/internal/coding"
	"repro/internal/combinat"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestFriendlyRoutesOneHop(t *testing.T) {
	g := gen.Complete(12)
	s, err := NewFriendly(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 || rep.MaxHops != 1 {
		t.Fatalf("friendly K_n routing: stretch %v maxhops %d", rep.Max, rep.MaxHops)
	}
}

func TestFriendlyLogMemory(t *testing.T) {
	g := gen.Complete(64)
	s, err := NewFriendly(g)
	if err != nil {
		t.Fatal(err)
	}
	if b := s.LocalBits(0); b != 6 {
		t.Fatalf("friendly LocalBits = %d, want log2 64 = 6", b)
	}
}

func TestFriendlyRejectsScrambled(t *testing.T) {
	g := gen.Complete(8)
	r := xrand.New(5)
	// Find a scramble that really changes vertex 0's labeling.
	g.PermutePorts(0, []int{1, 0, 2, 3, 4, 5, 6})
	if _, err := NewFriendly(g); err == nil {
		t.Fatal("accepted scrambled complete graph")
	}
	_ = r
}

func TestFriendlyRejectsNonComplete(t *testing.T) {
	g := gen.Cycle(5)
	if _, err := NewFriendly(g); err == nil {
		t.Fatal("accepted a cycle")
	}
}

func TestAdversarialRoutesOneHop(t *testing.T) {
	g := gen.Complete(10)
	s, err := Scramble(g, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 || rep.MaxHops != 1 {
		t.Fatalf("adversarial K_n routing: stretch %v maxhops %d", rep.Max, rep.MaxHops)
	}
}

func TestAdversarialMemoryIsPermutationCost(t *testing.T) {
	n := 20
	g := gen.Complete(n)
	s, err := Scramble(g, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := coding.PermutationBits(n-1) + coding.BitsFor(uint64(n))
	if got := s.LocalBits(3); got != want {
		t.Fatalf("adversarial LocalBits = %d, want %d", got, want)
	}
	// The Θ(n log n) separation of the paper's Section 1 example: the
	// adversarial cost must be within one bit of log2((n-1)!) ≈ n log n,
	// and vastly above the friendly O(log n).
	exact := combinat.Log2Factorial(n - 1)
	if float64(coding.PermutationBits(n-1)) < exact || float64(coding.PermutationBits(n-1)) > exact+1 {
		t.Fatal("permutation bits out of information-theoretic range")
	}
	// A scrambled graph no longer admits the friendly scheme.
	if _, err := NewFriendly(g); err == nil {
		t.Fatal("scrambled graph accepted by the friendly scheme")
	}
}

func TestAdversarialPermRoundTrip(t *testing.T) {
	n := 9
	g := gen.Complete(n)
	s, err := Scramble(g, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < n; x++ {
		perm := s.Perm(graph.NodeID(x))
		w := coding.NewBitWriter()
		w.WritePermutation(perm)
		r := coding.NewBitReader(w.Bytes(), w.Len())
		back, err := r.ReadPermutation(n - 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range perm {
			if perm[i] != back[i] {
				t.Fatalf("router %d permutation not recoverable from its code", x)
			}
		}
	}
}

func TestScrambleDeterministic(t *testing.T) {
	g1 := gen.Complete(8)
	g2 := gen.Complete(8)
	s1, _ := Scramble(g1, xrand.New(3))
	s2, _ := Scramble(g2, xrand.New(3))
	for x := 0; x < 8; x++ {
		p1, p2 := s1.Perm(graph.NodeID(x)), s2.Perm(graph.NodeID(x))
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatal("scramble not deterministic under fixed seed")
			}
		}
	}
}

func TestMemoryGapFriendlyVsAdversarial(t *testing.T) {
	n := 32
	gf := gen.Complete(n)
	f, err := NewFriendly(gf)
	if err != nil {
		t.Fatal(err)
	}
	ga := gen.Complete(n)
	a, err := Scramble(ga, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	fb := evaluate.Memory(gf, f, evaluate.Options{}).LocalBits
	ab := evaluate.Memory(ga, a, evaluate.Options{}).LocalBits
	if ab < 10*fb {
		t.Fatalf("expected a wide memory gap, got friendly=%d adversarial=%d", fb, ab)
	}
}
