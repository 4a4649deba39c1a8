package routing

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// greedyScheme routes by always stepping to a neighbor closer to the
// destination — a minimal shortest-path routing function for tests.
type greedyScheme struct {
	g    *graph.Graph
	apsp *shortest.APSP
}

func newGreedy(g *graph.Graph) *greedyScheme {
	return &greedyScheme{g: g, apsp: shortest.NewAPSPParallel(g, 0)}
}

func (s *greedyScheme) Name() string                         { return "greedy" }
func (s *greedyScheme) Init(src, dst graph.NodeID) Header    { return dst }
func (s *greedyScheme) Next(x graph.NodeID, h Header) Header { return h }
func (s *greedyScheme) LocalBits(x graph.NodeID) int         { return s.g.Order() } // arbitrary
func (s *greedyScheme) Port(x graph.NodeID, h Header) graph.Port {
	dst := h.(graph.NodeID)
	if x == dst {
		return graph.NoPort
	}
	d := s.apsp.Dist(x, dst)
	for i, w := range s.g.Arcs(x) {
		if s.apsp.Dist(w, dst)+1 == d {
			return graph.Port(i + 1)
		}
	}
	return graph.NoPort
}

// loopScheme always forwards on port 1 and never delivers: exercises the
// hop-budget failure path.
type loopScheme struct{}

func (loopScheme) Init(src, dst graph.NodeID) Header        { return dst }
func (loopScheme) Port(x graph.NodeID, h Header) graph.Port { return 1 }
func (loopScheme) Next(x graph.NodeID, h Header) Header     { return h }

// wrongScheme delivers immediately wherever it is.
type wrongScheme struct{}

func (wrongScheme) Init(src, dst graph.NodeID) Header        { return dst }
func (wrongScheme) Port(x graph.NodeID, h Header) graph.Port { return graph.NoPort }
func (wrongScheme) Next(x graph.NodeID, h Header) Header     { return h }

// badPortScheme answers a port beyond the degree.
type badPortScheme struct{}

func (badPortScheme) Init(src, dst graph.NodeID) Header        { return dst }
func (badPortScheme) Port(x graph.NodeID, h Header) graph.Port { return 99 }
func (badPortScheme) Next(x graph.NodeID, h Header) Header     { return h }

func TestRouteDeliversShortest(t *testing.T) {
	g := gen.Grid2D(4, 4)
	s := newGreedy(g)
	hops, err := Route(g, s, 0, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if PathLen(hops) != 6 {
		t.Fatalf("corner-to-corner path length %d, want 6", PathLen(hops))
	}
	if hops[len(hops)-1].Node != 15 || hops[len(hops)-1].Port != graph.NoPort {
		t.Fatal("route does not end with delivery at destination")
	}
}

func TestRouteSelfPair(t *testing.T) {
	g := gen.Cycle(5)
	s := newGreedy(g)
	hops, err := Route(g, s, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if PathLen(hops) != 0 {
		t.Fatal("self route should have length 0")
	}
}

func TestRouteLoopDetected(t *testing.T) {
	g := gen.Cycle(4)
	_, err := Route(g, loopScheme{}, 0, 2, 0)
	if err == nil {
		t.Fatal("loop not detected")
	}
	if !strings.Contains(err.Error(), "hop budget") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRouteWrongDelivery(t *testing.T) {
	g := gen.Cycle(4)
	_, err := Route(g, wrongScheme{}, 0, 2, 0)
	if err == nil || !strings.Contains(err.Error(), "wrong node") {
		t.Fatalf("mis-delivery not reported: %v", err)
	}
}

func TestRouteInvalidPort(t *testing.T) {
	g := gen.Cycle(4)
	_, err := Route(g, badPortScheme{}, 0, 2, 0)
	if err == nil || !strings.Contains(err.Error(), "invalid port") {
		t.Fatalf("invalid port not reported: %v", err)
	}
}

func TestBitsOverSubset(t *testing.T) {
	g := gen.Cycle(6)
	s := newGreedy(g)
	sub := []graph.NodeID{1, 3}
	if MaxBitsOver(s, sub) != 6 || SumBitsOver(s, sub) != 12 {
		t.Fatal("subset accounting wrong")
	}
}

func TestRouteErrorMessage(t *testing.T) {
	e := &RouteError{Src: 1, Dst: 2, Hops: 3, Reason: ReasonLoop, Detail: "boom"}
	if !strings.Contains(e.Error(), "1->2") || !strings.Contains(e.Error(), "boom") {
		t.Fatalf("unhelpful error: %v", e)
	}
	// Without a detail the typed reason names itself.
	e = &RouteError{Src: 1, Dst: 2, Hops: 3, Reason: ReasonDeadPort}
	if !strings.Contains(e.Error(), "dead-port") {
		t.Fatalf("reason not rendered: %v", e)
	}
}

// TestRouteErrorReasons pins the structural classification the fault
// harness branches on: each failure mode carries its typed Reason while
// Error() keeps the historical text.
func TestRouteErrorReasons(t *testing.T) {
	g := gen.Cycle(6)
	// A function that always forwards on port 1 loops forever for most
	// pairs; with a caller budget the same walk is a hop-budget failure.
	always1 := funcStub{
		port: func(x graph.NodeID, h Header) graph.Port { return 1 },
	}
	assertReason := func(err error, want Reason, wantText string) {
		t.Helper()
		re := &RouteError{}
		if !errors.As(err, &re) {
			t.Fatalf("got %v, want a *RouteError", err)
		}
		if re.Reason != want {
			t.Fatalf("reason %v, want %v (err: %v)", re.Reason, want, err)
		}
		if wantText != "" && !strings.Contains(err.Error(), wantText) {
			t.Fatalf("error text %q lost %q", err.Error(), wantText)
		}
	}
	_, err := RouteLen(g, always1, 0, 3, 0)
	assertReason(err, ReasonLoop, "hop budget exhausted (loop?)")
	_, err = RouteLen(g, always1, 0, 3, 1)
	assertReason(err, ReasonHopBudget, "hop budget exhausted (loop?)")

	badPort := funcStub{
		port: func(x graph.NodeID, h Header) graph.Port { return 99 },
	}
	_, err = RouteLen(g, badPort, 0, 3, 0)
	assertReason(err, ReasonInvalidPort, "invalid port 99")

	wrongNode := funcStub{
		port: func(x graph.NodeID, h Header) graph.Port { return graph.NoPort },
	}
	_, err = RouteLen(g, wrongNode, 0, 3, 0)
	assertReason(err, ReasonNonDelivery, "delivered at wrong node")

	// Remove the edge the walk wants: port 1 at vertex 0 goes dead.
	killed := gen.Cycle(6)
	v := killed.Neighbor(0, 1)
	killed.RemoveEdge(0, v)
	_, err = RouteLen(killed, always1, 0, 3, 0)
	assertReason(err, ReasonDeadPort, "dead port 1 at node 0")
	err = RouteVisit(killed, always1, 0, 3, 0, func(Hop) {})
	assertReason(err, ReasonDeadPort, "dead port 1 at node 0")
}

// funcStub adapts a port closure into a Function for failure-mode tests.
type funcStub struct {
	port func(x graph.NodeID, h Header) graph.Port
}

func (f funcStub) Init(src, dst graph.NodeID) Header        { return nil }
func (f funcStub) Port(x graph.NodeID, h Header) graph.Port { return f.port(x, h) }
func (f funcStub) Next(x graph.NodeID, h Header) Header     { return h }
