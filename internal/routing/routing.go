// Package routing implements the paper's model of distributed routing
// functions and the simulator that exercises them.
//
// A routing function R is a triple (I, H, P) of initialization, header and
// port functions (Peleg–Upfal model, as restated in Section 1 of the
// paper). For distinct u, v it produces a path u = u_1, u_2, ..., u_k = v
// and headers h_1 = I(u, v), h_{i+1} = H(u_i, h_i), where u_{i+1} is the
// endpoint of the arc leaving u_i through port P(u_i, h_i), and
// P(u_k, h_k) = 0 signals delivery. Headers may be of unbounded size —
// the paper's memory requirement deliberately excludes them — so Header is
// an opaque interface value here and only router-resident state is
// metered.
//
// The package is the model and the simulator only: Route, RouteVisit and
// RouteLen walk one pair. Sweeps over the pair space — the stretch factor
// s(R, G) and the MEM_local / MEM_global aggregates — are measured by
// internal/evaluate, the one measurement engine.
package routing

import (
	"fmt"

	"repro/internal/graph"
)

// Header is the message header h_i carried between routers. Its concrete
// type is private to each scheme.
type Header any

// Function is the routing function triple R = (I, H, P).
type Function interface {
	// Init computes the initial header I(src, dst) attached at the source.
	Init(src, dst graph.NodeID) Header
	// Port computes P(x, h): the output port to forward through, or
	// graph.NoPort when the message is delivered at x.
	Port(x graph.NodeID, h Header) graph.Port
	// Next computes H(x, h): the header forwarded with the message. It is
	// consulted only when Port(x, h) != NoPort.
	Next(x graph.NodeID, h Header) Header
}

// LocalCoder is implemented by schemes that expose the local code of each
// router under the repository's fixed coding strategy (see package
// coding). LocalBits(x) is the stand-in for MEM(G,R,x).
type LocalCoder interface {
	LocalBits(x graph.NodeID) int
}

// Scheme bundles a routing function with its memory accounting; every
// concrete scheme in internal/scheme implements it.
type Scheme interface {
	Function
	LocalCoder
	// Name identifies the scheme in reports.
	Name() string
}

// Hop records one step of a simulated route.
type Hop struct {
	Node graph.NodeID
	Port graph.Port // port taken at Node (NoPort on the final hop)
}

// Reason classifies a routing failure structurally. The delivery sweep
// (evaluate.Delivery) and tests branch on these constants instead of
// matching Error() strings, which stay free to carry per-failure
// detail.
type Reason uint8

const (
	// ReasonLoop: the default hop allowance (4n+4, ample for any
	// bounded-stretch delivery on a connected graph) ran out — the walk
	// is cycling, not progressing.
	ReasonLoop Reason = iota + 1
	// ReasonInvalidPort: the port function returned a port outside
	// 1..deg(x) at some router.
	ReasonInvalidPort
	// ReasonHopBudget: a caller-imposed maxHops bound was exhausted
	// before delivery (the walk might still have delivered with more
	// budget — distinguish from ReasonLoop).
	ReasonHopBudget
	// ReasonNonDelivery: the scheme signaled delivery (NoPort) at a
	// router other than the destination.
	ReasonNonDelivery
	// ReasonDeadPort: the walk selected a port whose edge has been
	// removed (graph.DeadEnd slot) — the scheme's knowledge predates a
	// fault. This is how disconnection and not-yet-repaired state
	// surface during fault injection.
	ReasonDeadPort

	// NumReasons is one past the last reason, so an array indexed by
	// Reason has NumReasons entries (entry 0 stays unused).
	NumReasons
)

// String names the reason as the fault harness reports spell it.
func (r Reason) String() string {
	switch r {
	case ReasonLoop:
		return "loop"
	case ReasonInvalidPort:
		return "invalid-port"
	case ReasonHopBudget:
		return "hop-budget"
	case ReasonNonDelivery:
		return "non-delivery"
	case ReasonDeadPort:
		return "dead-port"
	default:
		return fmt.Sprintf("reason-%d", uint8(r))
	}
}

// RouteError describes a failed simulation: a loop, an invalid port, a
// hop budget overrun, a wrong-node delivery, or a walk into a removed
// edge. Reason is the structural classification; Detail preserves the
// free-form text Error() has always rendered, so recorded outputs are
// stable across the typed-reason migration.
type RouteError struct {
	Src, Dst graph.NodeID
	Hops     int
	Reason   Reason
	Detail   string
}

func (e *RouteError) Error() string {
	d := e.Detail
	if d == "" {
		d = e.Reason.String()
	}
	return fmt.Sprintf("routing: %d->%d failed after %d hops: %s", e.Src, e.Dst, e.Hops, d)
}

// Route simulates R on g from src to dst, returning the hop sequence
// (ending with the delivery hop at dst). maxHops bounds the walk; pass 0
// for the default 4n+4 (any scheme of bounded stretch on a connected graph
// fits comfortably; runaway schemes are reported as errors instead of
// hanging).
func Route(g *graph.Graph, r Function, src, dst graph.NodeID, maxHops int) ([]Hop, error) {
	hops := make([]Hop, 0, 8)
	err := RouteVisit(g, r, src, dst, maxHops, func(h Hop) {
		hops = append(hops, h)
	})
	return hops, err
}

// RouteVisit simulates R like Route but streams each hop to visit instead
// of materializing a slice — the allocation-free form the all-pairs
// evaluator in internal/evaluate runs millions of times. The final
// delivery hop (Port == NoPort) is visited too; on error the hops walked
// so far have been visited.
//
//repolint:hotpath
func RouteVisit(g *graph.Graph, r Function, src, dst graph.NodeID, maxHops int, visit func(Hop)) error {
	budgetReason := ReasonHopBudget
	if maxHops <= 0 {
		maxHops = 4*g.Order() + 4
		budgetReason = ReasonLoop
	}
	x := src
	h := r.Init(src, dst)
	for step := 0; ; step++ {
		p := r.Port(x, h)
		if p == graph.NoPort {
			visit(Hop{Node: x})
			if x != dst {
				return &RouteError{Src: src, Dst: dst, Hops: step, Reason: ReasonNonDelivery,
					Detail: fmt.Sprintf("delivered at wrong node %d", x)}
			}
			return nil
		}
		arcs := g.Arcs(x)
		if p < 1 || int(p) > len(arcs) {
			return &RouteError{Src: src, Dst: dst, Hops: step, Reason: ReasonInvalidPort,
				Detail: fmt.Sprintf("invalid port %d at node %d (degree %d)", p, x, len(arcs))}
		}
		if arcs[p-1] == graph.DeadEnd {
			return &RouteError{Src: src, Dst: dst, Hops: step, Reason: ReasonDeadPort,
				Detail: fmt.Sprintf("dead port %d at node %d (edge removed)", p, x)}
		}
		if step >= maxHops {
			return &RouteError{Src: src, Dst: dst, Hops: step, Reason: budgetReason,
				Detail: "hop budget exhausted (loop?)"}
		}
		visit(Hop{Node: x, Port: p})
		h = r.Next(x, h)
		x = arcs[p-1]
	}
}

// RouteLen simulates R like RouteVisit but only returns the length of the
// routing path in edges — no hop materialization, no per-hop callback.
// It is the inner loop of the all-pairs stretch evaluator, which runs it
// n(n-1) times per report; keeping the walk free of closure calls is
// worth the small duplication with RouteVisit. The walk, the error cases
// and the hop accounting are identical to RouteVisit's.
//
//repolint:hotpath
func RouteLen(g *graph.Graph, r Function, src, dst graph.NodeID, maxHops int) (int, error) {
	budgetReason := ReasonHopBudget
	if maxHops <= 0 {
		maxHops = 4*g.Order() + 4
		budgetReason = ReasonLoop
	}
	x := src
	h := r.Init(src, dst)
	for step := 0; ; step++ {
		p := r.Port(x, h)
		if p == graph.NoPort {
			if x != dst {
				return step, &RouteError{Src: src, Dst: dst, Hops: step, Reason: ReasonNonDelivery,
					Detail: fmt.Sprintf("delivered at wrong node %d", x)}
			}
			return step, nil
		}
		arcs := g.Arcs(x)
		if p < 1 || int(p) > len(arcs) {
			return step, &RouteError{Src: src, Dst: dst, Hops: step, Reason: ReasonInvalidPort,
				Detail: fmt.Sprintf("invalid port %d at node %d (degree %d)", p, x, len(arcs))}
		}
		if arcs[p-1] == graph.DeadEnd {
			return step, &RouteError{Src: src, Dst: dst, Hops: step, Reason: ReasonDeadPort,
				Detail: fmt.Sprintf("dead port %d at node %d (edge removed)", p, x)}
		}
		if step >= maxHops {
			return step, &RouteError{Src: src, Dst: dst, Hops: step, Reason: budgetReason,
				Detail: "hop budget exhausted (loop?)"}
		}
		h = r.Next(x, h)
		x = arcs[p-1]
	}
}

// PathLen returns the number of edges traversed by a hop sequence.
func PathLen(hops []Hop) int {
	if len(hops) == 0 {
		return 0
	}
	return len(hops) - 1
}

// MaxBitsOver returns the maximum of LocalBits over a subset of routers —
// used to report the memory of the constrained set A in Theorem 1 runs.
func MaxBitsOver(s LocalCoder, nodes []graph.NodeID) int {
	m := 0
	for _, x := range nodes {
		if b := s.LocalBits(x); b > m {
			m = b
		}
	}
	return m
}

// SumBitsOver returns Σ LocalBits over a subset of routers.
func SumBitsOver(s LocalCoder, nodes []graph.NodeID) int {
	t := 0
	for _, x := range nodes {
		t += s.LocalBits(x)
	}
	return t
}
