package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// ConstraintGraph is the output of Lemma 2's construction: a three-level
// graph realizing a given matrix as a matrix of constraints for every
// stretch factor below 2.
type ConstraintGraph struct {
	G *graph.Graph
	M *Matrix
	// A[i] is the i-th constrained vertex a_{i+1}; B[j] the j-th target
	// vertex b_{j+1}; C[i][k] the middle vertex c_{i+1,k+1} or -1 when row
	// i never uses value k.
	A []graph.NodeID
	B []graph.NodeID
	C [][]graph.NodeID
}

// BuildConstraintGraph constructs the generalized graph of constraints of
// M (Lemma 2): vertices A ∪ B ∪ C with
//
//	{a_i, c_ik} ∈ E  iff  ∃j: m_ij = k,
//	{b_j, c_ik} ∈ E  iff  m_ij = k,
//
// and the port of a_i toward c_ik labeled k. Vertices c_ik that would be
// isolated are never created, so the order is |A| + |B| + |C| ≤ p(d+1)+q.
// The graph is connected (every b_j touches a row-1 middle vertex, every
// middle vertex touches its a_i).
//
// Construction order matters for the port labels: at a_i, the arcs to
// c_i1, c_i2, ... are inserted in increasing k, and because row i uses the
// value set {1..k_i} exactly (first-occurrence form is NOT required, but
// the values present must be a prefix {1..k_i} for the ports to line up;
// NormalizeRows guarantees it), the arc toward c_ik lands on port k.
func BuildConstraintGraph(m *Matrix) (*ConstraintGraph, error) {
	if !m.IsRGSFormLoose() {
		return nil, fmt.Errorf("core: matrix rows must use value prefixes {1..k_i}; call NormalizeRows first")
	}
	p, q := m.P, m.Q
	g := graph.New(p + q)
	cg := &ConstraintGraph{
		G: g,
		M: m.Clone(),
		A: make([]graph.NodeID, p),
		B: make([]graph.NodeID, q),
		C: make([][]graph.NodeID, p),
	}
	for i := 0; i < p; i++ {
		cg.A[i] = graph.NodeID(i)
	}
	for j := 0; j < q; j++ {
		cg.B[j] = graph.NodeID(p + j)
	}
	// Create middle vertices row by row, arcs at a_i in increasing value
	// order so that port k at a_i reaches c_ik.
	for i := 0; i < p; i++ {
		ki := m.RowValues(i)
		cg.C[i] = make([]graph.NodeID, m.D)
		for k := range cg.C[i] {
			cg.C[i][k] = -1
		}
		for k := 0; k < ki; k++ {
			c := g.AddNode()
			cg.C[i][k] = c
			pu, _ := g.AddEdge(cg.A[i], c)
			if int(pu) != k+1 {
				return nil, fmt.Errorf("core: internal port misalignment at a_%d value %d: got %d", i+1, k+1, pu)
			}
		}
		for j := 0; j < q; j++ {
			k := int(m.At(i, j))
			g.AddEdge(cg.B[j], cg.C[i][k])
		}
	}
	return cg, nil
}

// IsRGSFormLoose reports whether each row's value set is exactly
// {0..k_i-1} (a prefix), without requiring first-occurrence ORDER. This
// is Definition 1's condition on the entries; BuildConstraintGraph needs
// it so that ports align with values.
func (m *Matrix) IsRGSFormLoose() bool {
	for i := 0; i < m.P; i++ {
		var seen [256]bool
		maxv := -1
		for j := 0; j < m.Q; j++ {
			v := int(m.At(i, j))
			seen[v] = true
			if v > maxv {
				maxv = v
			}
		}
		for v := 0; v <= maxv; v++ {
			if !seen[v] {
				return false
			}
		}
	}
	return true
}

// Order returns the number of vertices of the built graph.
func (cg *ConstraintGraph) Order() int { return cg.G.Order() }

// OrderBound returns Lemma 2's bound p(d+1) + q on the order.
func (cg *ConstraintGraph) OrderBound() int { return cg.M.P*(cg.M.D+1) + cg.M.Q }

// VerifyLemma2 checks the structural claims of Lemma 2 exhaustively:
//
//  1. the graph is connected, simple and of order ≤ p(d+1)+q;
//  2. for every (i, j) there is exactly one a_i→b_j path of length 2 and
//     it starts with port m_ij at a_i;
//  3. every other a_i→b_j path has length ≥ 4, i.e. for every stretch
//     s < 2 the port m_ij is forced (checked via ForcedPort, the exact
//     Definition 1 test).
func (cg *ConstraintGraph) VerifyLemma2() error {
	g := cg.G
	if err := g.Validate(); err != nil {
		return fmt.Errorf("core: invalid graph: %w", err)
	}
	if !g.Connected() {
		return fmt.Errorf("core: constraint graph disconnected")
	}
	if g.Order() > cg.OrderBound() {
		return fmt.Errorf("core: order %d exceeds Lemma 2 bound %d", g.Order(), cg.OrderBound())
	}
	apsp := shortest.NewAPSPParallel(g, 0)
	for i := 0; i < cg.M.P; i++ {
		for j := 0; j < cg.M.Q; j++ {
			a, b := cg.A[i], cg.B[j]
			want := graph.Port(cg.M.At(i, j) + 1)
			if d := apsp.Dist(a, b); d != 2 {
				return fmt.Errorf("core: d(a_%d, b_%d) = %d, want 2", i+1, j+1, d)
			}
			if c := shortest.CountShortestPaths(g, apsp, a, b, 10); c != 1 {
				return fmt.Errorf("core: %d shortest a_%d→b_%d paths, want 1", c, i+1, j+1)
			}
			// Exact forced-port test at stretch just below 2: budget 3.
			arcs := shortest.FeasibleFirstArcs(g, apsp, a, b, 3)
			if len(arcs) != 1 || arcs[0] != want {
				return fmt.Errorf("core: a_%d→b_%d: feasible first arcs %v, want exactly port %d",
					i+1, j+1, arcs, want)
			}
		}
	}
	return nil
}

// PadToOrder attaches a pendant path to a middle vertex (never a
// constrained or target vertex) until the graph reaches order n, as in
// the proof of Theorem 1. It fails if the graph is already larger than n.
func (cg *ConstraintGraph) PadToOrder(n int) error {
	cur := cg.G.Order()
	if cur > n {
		return fmt.Errorf("core: order %d already exceeds requested %d", cur, n)
	}
	if cur == n {
		return nil
	}
	// First middle vertex of row 1 always exists (q >= 1 forces k_1 >= 1).
	anchor := cg.C[0][0]
	if anchor < 0 {
		return fmt.Errorf("core: no middle vertex to anchor the padding path")
	}
	prev := anchor
	for cg.G.Order() < n {
		v := cg.G.AddNode()
		cg.G.AddEdge(prev, v)
		prev = v
	}
	return nil
}

// ForcedMatrix recomputes, from the graph alone, the matrix forced on the
// constrained vertices at the given stretch budget: entry (i, j) is the
// unique feasible first arc of a_i→b_j, or an error if any pair is not
// forced. For a freshly built (possibly padded) constraint graph at any
// s < 2 this returns exactly M — the executable content of Definition 1.
func (cg *ConstraintGraph) ForcedMatrix(s float64) (*Matrix, error) {
	apsp := shortest.NewAPSPParallel(cg.G, 0)
	cells := make([]uint8, 0, cg.M.P*cg.M.Q)
	for i := 0; i < cg.M.P; i++ {
		for j := 0; j < cg.M.Q; j++ {
			port, ok := shortest.ForcedPort(cg.G, apsp, cg.A[i], cg.B[j], s)
			if !ok {
				return nil, fmt.Errorf("core: pair a_%d→b_%d not forced at stretch %g", i+1, j+1, s)
			}
			cells = append(cells, uint8(port-1))
		}
	}
	return NewMatrix(cg.M.P, cg.M.Q, cg.M.D, cells)
}
