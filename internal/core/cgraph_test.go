package core

import (
	"testing"
	"testing/quick"

	"repro/internal/evaluate"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func TestBuildConstraintGraphRejectsNonPrefixRows(t *testing.T) {
	// Row uses {0,2} but not 1: not a value prefix.
	m := &Matrix{P: 1, Q: 2, D: 3, cells: []uint8{0, 2}}
	if _, err := BuildConstraintGraph(m); err == nil {
		t.Fatal("non-prefix row accepted")
	}
}

func TestConstraintGraphStructure(t *testing.T) {
	m := MustMatrix(2, 3, 3, []uint8{0, 0, 1, 0, 1, 2})
	cg, err := BuildConstraintGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 uses 2 values, row 2 uses 3: |C| = 5, order = 2 + 3 + 5 = 10.
	if cg.Order() != 10 {
		t.Fatalf("order %d, want 10", cg.Order())
	}
	if cg.Order() > cg.OrderBound() {
		t.Fatal("order exceeds Lemma 2 bound")
	}
	// Port k+1 at a_i leads to c_ik.
	for i := 0; i < 2; i++ {
		ki := m.RowValues(i)
		if cg.G.Degree(cg.A[i]) != ki {
			t.Fatalf("deg(a_%d) = %d, want %d", i+1, cg.G.Degree(cg.A[i]), ki)
		}
		for k := 0; k < ki; k++ {
			if cg.G.Neighbor(cg.A[i], graph.Port(k+1)) != cg.C[i][k] {
				t.Fatalf("port %d at a_%d misaligned", k+1, i+1)
			}
		}
	}
	if err := cg.VerifyLemma2(); err != nil {
		t.Fatal(err)
	}
}

func TestAllWorkedExampleGraphsVerify(t *testing.T) {
	// Equation 2 of the paper: the seven graphs of constraints of ³M₂₃.
	ms := Enumerate(3, 2, 3)
	if len(ms) != 7 {
		t.Fatalf("expected 7 matrices, got %d", len(ms))
	}
	for i, m := range ms {
		cg, err := BuildConstraintGraph(m)
		if err != nil {
			t.Fatalf("matrix #%d: %v", i+1, err)
		}
		if err := cg.VerifyLemma2(); err != nil {
			t.Fatalf("matrix #%d: %v", i+1, err)
		}
	}
}

func TestConstraintGraphPropertyRandom(t *testing.T) {
	check := func(seed uint64, pp, qq, dd uint8) bool {
		p := int(pp%4) + 1
		q := int(qq%5) + 1
		d := int(dd%4) + 1
		m := RandomMatrix(p, q, d, xrand.New(seed))
		cg, err := BuildConstraintGraph(m)
		if err != nil {
			return false
		}
		return cg.VerifyLemma2() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForcedMatrixRecoversM(t *testing.T) {
	check := func(seed uint64, pp, qq, dd uint8) bool {
		p := int(pp%3) + 1
		q := int(qq%4) + 1
		d := int(dd%3) + 2
		m := RandomMatrix(p, q, d, xrand.New(seed))
		cg, err := BuildConstraintGraph(m)
		if err != nil {
			return false
		}
		for _, s := range []float64{1.0, 1.5, 1.99} {
			got, err := cg.ForcedMatrix(s)
			if err != nil || !got.Equal(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForcednessBreaksAtStretch2(t *testing.T) {
	// At s = 2 the budget is 4 and the alternative length-4 paths become
	// admissible, so pairs with alternatives are no longer forced — the
	// reason Theorem 1 stops strictly below stretch 2.
	m := MustMatrix(2, 3, 3, []uint8{0, 1, 2, 0, 1, 2})
	cg, err := BuildConstraintGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.ForcedMatrix(2.0); err == nil {
		t.Fatal("constraints survived stretch 2; they must not")
	}
}

func TestPadToOrder(t *testing.T) {
	m := MustMatrix(2, 2, 2, []uint8{0, 1, 0, 0})
	cg, err := BuildConstraintGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.PadToOrder(25); err != nil {
		t.Fatal(err)
	}
	if cg.G.Order() != 25 {
		t.Fatalf("padded order %d, want 25", cg.G.Order())
	}
	if !cg.G.Connected() {
		t.Fatal("padding broke connectivity")
	}
	// Constraints must survive padding.
	got, err := cg.ForcedMatrix(1.9)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("padding changed the forced matrix")
	}
}

func TestPadToOrderRejectsShrink(t *testing.T) {
	m := MustMatrix(2, 3, 3, []uint8{0, 1, 2, 0, 0, 1})
	cg, _ := BuildConstraintGraph(m)
	if err := cg.PadToOrder(3); err == nil {
		t.Fatal("shrinking pad accepted")
	}
}

func TestPadToOrderNoop(t *testing.T) {
	m := MustMatrix(1, 2, 2, []uint8{0, 1})
	cg, _ := BuildConstraintGraph(m)
	n := cg.G.Order()
	if err := cg.PadToOrder(n); err != nil {
		t.Fatal(err)
	}
	if cg.G.Order() != n {
		t.Fatal("noop pad changed order")
	}
}

func TestRoutingTablesObeyConstraints(t *testing.T) {
	// End-to-end: shortest-path routing tables on a padded constraint
	// graph must answer exactly the matrix entries at the constrained
	// routers — the executable version of Definition 1.
	m := RandomMatrix(3, 6, 4, xrand.New(21))
	cg, err := BuildConstraintGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.PadToOrder(cg.Order() + 9); err != nil {
		t.Fatal(err)
	}
	s, err := table.New(cg.G, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate.Stretch(cg.G, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("tables stretch %v", rep.Max)
	}
	got, err := Rebuild(s, cg.A, cg.B, m.D)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("rebuilt matrix differs:\n%s\nvs\n%s", got, m)
	}
}

func TestMiddleVertexDegrees(t *testing.T) {
	// c_ik is adjacent to a_i plus the b_j with m_ij = k.
	m := MustMatrix(1, 4, 2, []uint8{0, 1, 0, 1})
	cg, err := BuildConstraintGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	apsp := shortest.NewAPSPParallel(cg.G, 0)
	_ = apsp
	if cg.G.Degree(cg.C[0][0]) != 3 { // a_1, b_1, b_3
		t.Fatalf("deg(c_11) = %d, want 3", cg.G.Degree(cg.C[0][0]))
	}
	if cg.G.Degree(cg.C[0][1]) != 3 { // a_1, b_2, b_4
		t.Fatalf("deg(c_12) = %d, want 3", cg.G.Degree(cg.C[0][1]))
	}
}
