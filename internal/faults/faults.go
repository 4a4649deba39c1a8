// Package faults injects seeded topology faults into port-labeled
// graphs, for experiment E23 and the routeserve -kill flag.
//
// A Plan is a deterministic victim list (edges or vertices, sampled
// uniformly or degree-weighted from a seeded xrand stream) that Apply
// executes through the graph package's port-stable removal API: the
// surviving ports keep their labels, so a scheme built before the fault
// still addresses the same wiring after it. DirtyRoots then bounds which
// distance rows the fault can have touched — the input to
// shortest.(*APSP).RefreshRows and table.(*Scheme).Repair. The faulted
// graph's pair sweep is evaluate.Delivery.
package faults

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// Mode selects what a plan removes.
type Mode int

const (
	// KillEdges removes k edges, leaving dead port slots at both ends.
	KillEdges Mode = iota
	// KillVertices removes k vertices and every incident edge.
	KillVertices
)

// String names the mode as CLI flags spell it.
func (m Mode) String() string {
	switch m {
	case KillEdges:
		return "edges"
	case KillVertices:
		return "vertices"
	default:
		return fmt.Sprintf("mode-%d", int(m))
	}
}

// Weighting selects how victims are drawn.
type Weighting int

const (
	// Uniform draws victims uniformly at random.
	Uniform Weighting = iota
	// ByDegree draws victims proportionally to degree (edges: the sum of
	// their endpoint degrees) — the "hubs fail first" adversary.
	ByDegree
)

// String names the weighting as CLI flags spell it.
func (w Weighting) String() string {
	switch w {
	case Uniform:
		return "uniform"
	case ByDegree:
		return "bydegree"
	default:
		return fmt.Sprintf("weighting-%d", int(w))
	}
}

// Options configure NewPlan.
type Options struct {
	Mode      Mode
	Count     int // victims to select
	Weighting Weighting
	Seed      uint64
	// KeepConnected skips victims whose removal would disconnect the
	// surviving vertices, selecting the next candidate instead. The
	// repairable-fault experiments require it (no scheme exists on a
	// disconnected graph); disconnection-detection sweeps turn it off.
	KeepConnected bool
}

// Plan is a deterministic victim list. Identical (graph, Options) yield
// identical plans.
type Plan struct {
	Edges    [][2]graph.NodeID // removed edges, in kill order (u < v per pair)
	Vertices []graph.NodeID    // removed vertices, in kill order
}

// NewPlan samples a victim list from g under opt. It fails when fewer
// than opt.Count victims are selectable (too few candidates, or
// KeepConnected filtered the remainder away).
func NewPlan(g *graph.Graph, opt Options) (*Plan, error) {
	if opt.Count < 0 {
		return nil, fmt.Errorf("faults: negative count %d", opt.Count)
	}
	r := xrand.New(opt.Seed)
	p := &Plan{}
	switch opt.Mode {
	case KillEdges:
		return p, planEdges(g, opt, r, p)
	case KillVertices:
		return p, planVertices(g, opt, r, p)
	default:
		return nil, fmt.Errorf("faults: unknown mode %d", int(opt.Mode))
	}
}

func planEdges(g *graph.Graph, opt Options, r *xrand.Rand, p *Plan) error {
	cand := g.Edges()
	weights := make([]int64, len(cand))
	for i, e := range cand {
		if opt.Weighting == ByDegree {
			weights[i] = int64(g.Degree(e[0]) + g.Degree(e[1]))
		} else {
			weights[i] = 1
		}
	}
	deadE := make(map[[2]graph.NodeID]bool, opt.Count)
	for len(p.Edges) < opt.Count {
		i, ok := draw(r, weights)
		if !ok {
			return fmt.Errorf("faults: only %d of %d requested edge kills selectable", len(p.Edges), opt.Count)
		}
		weights[i] = 0 // consumed (or rejected) either way
		e := cand[i]
		if opt.KeepConnected {
			deadE[e] = true
			if !connectedWithout(g, deadE, nil) {
				delete(deadE, e)
				continue
			}
		}
		p.Edges = append(p.Edges, e)
	}
	return nil
}

func planVertices(g *graph.Graph, opt Options, r *xrand.Rand, p *Plan) error {
	n := g.Order()
	weights := make([]int64, n)
	for v := 0; v < n; v++ {
		if opt.Weighting == ByDegree {
			weights[v] = int64(g.Degree(graph.NodeID(v)))
		} else {
			weights[v] = 1
		}
	}
	deadV := make([]bool, n)
	for len(p.Vertices) < opt.Count {
		i, ok := draw(r, weights)
		if !ok {
			return fmt.Errorf("faults: only %d of %d requested vertex kills selectable", len(p.Vertices), opt.Count)
		}
		weights[i] = 0
		v := graph.NodeID(i)
		if opt.KeepConnected {
			deadV[v] = true
			if !connectedWithout(g, nil, deadV) {
				deadV[v] = false
				continue
			}
		}
		p.Vertices = append(p.Vertices, v)
	}
	return nil
}

// draw samples one index proportionally to weights (zero-weight entries
// are exhausted) from the seeded stream; ok is false when every weight
// is zero. Weighted selection by a single Intn over the running total
// keeps the plan a pure function of (graph, Options).
func draw(r *xrand.Rand, weights []int64) (int, bool) {
	var total int64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0, false
	}
	t := int64(r.Intn(int(total)))
	for i, w := range weights {
		if w == 0 {
			continue
		}
		t -= w
		if t < 0 {
			return i, true
		}
	}
	return 0, false // unreachable: t < total
}

// connectedWithout reports whether the graph stays connected after
// hypothetically removing the given edges and vertices — a read-only
// check, so rejected candidates cost no graph mutation.
func connectedWithout(g *graph.Graph, deadE map[[2]graph.NodeID]bool, deadV []bool) bool {
	n := g.Order()
	alive := 0
	start := graph.NodeID(-1)
	for v := 0; v < n; v++ {
		vi := graph.NodeID(v)
		if g.Removed(vi) || (deadV != nil && deadV[v]) {
			continue
		}
		alive++
		if start < 0 {
			start = vi
		}
	}
	if alive <= 1 {
		return true
	}
	visited := make([]bool, n)
	stack := []graph.NodeID{start}
	visited[start] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Arcs(u) {
			if v == graph.DeadEnd || visited[v] {
				continue
			}
			if deadV != nil && deadV[v] {
				continue
			}
			if deadE != nil {
				key := [2]graph.NodeID{u, v}
				if u > v {
					key = [2]graph.NodeID{v, u}
				}
				if deadE[key] {
					continue
				}
			}
			visited[v] = true
			count++
			stack = append(stack, v)
		}
	}
	return count == alive
}

// Apply executes the plan on g, in kill order, and re-freezes the CSR
// layout. The graph is mutated in place; clone first to keep the
// pre-fault topology (the repair bit-identity tests do).
func (p *Plan) Apply(g *graph.Graph) {
	for _, e := range p.Edges {
		g.RemoveEdge(e[0], e[1])
	}
	for _, v := range p.Vertices {
		g.RemoveVertex(v)
	}
	g.Freeze()
}

// DirtyRoots returns a sound superset of the APSP roots whose distance
// rows can change when the given edges are removed, computed from the
// PRE-fault table: the row of v moves only if some removed edge {a,b}
// was tight from v, i.e. |d(v,a) - d(v,b)| == 1 — otherwise no shortest
// path from v crosses {a,b}, and since removals only lengthen distances
// the criterion stays sound for simultaneous multi-edge removal. The
// result is ascending and duplicate-free; it is the dirty set handed to
// shortest.RefreshRows and table.Scheme.Repair.
func DirtyRoots(pre *shortest.APSP, removed [][2]graph.NodeID) []graph.NodeID {
	n := pre.Order()
	dirty := make([]bool, n)
	for _, e := range removed {
		rowA := pre.Row(e[0])
		rowB := pre.Row(e[1])
		for v := 0; v < n; v++ {
			d := rowA[v] - rowB[v]
			if d == 1 || d == -1 {
				dirty[v] = true
			}
		}
	}
	var out []graph.NodeID
	for v := 0; v < n; v++ {
		if dirty[v] {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
