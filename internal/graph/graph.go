// Package graph implements the network model of Fraigniaud & Gavoille
// (1996): finite connected symmetric digraphs with locally port-labeled
// arcs.
//
// Vertices are labeled 0..n-1 (the paper uses 1..n; we keep 0-based ids
// internally and render 1-based labels only for display). Each edge {u,v}
// corresponds to two symmetric arcs (u,v) and (v,u). The output ports of a
// vertex x are labeled 1..deg(x); the port labeling is local — renumbering
// the ports of one vertex does not affect any other vertex. Port labelings
// are first-class here because the paper's lower bound is precisely about
// the adversary's freedom to choose them.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a vertex, in [0, Order()).
type NodeID = int32

// Port identifies an outgoing arc locally at a vertex. Valid ports are
// 1..deg(x); 0 is reserved as "no port" (used by routing functions to mean
// "deliver locally").
type Port = int32

// NoPort is the reserved null port value.
const NoPort Port = 0

// DeadEnd is the neighbor id stored in a port slot whose edge has been
// removed. Removal keeps surviving port labels stable — the slot stays,
// its endpoint becomes DeadEnd and its back port NoPort — so schemes
// built before a fault keep addressing the same ports after it, which is
// what makes incremental repair (and the dead-port routing error)
// well-defined. Arcs/Neighbor report the sentinel as-is; kernels skip
// negative endpoints.
const DeadEnd NodeID = -1

// Graph is a mutable symmetric digraph with local port labels.
//
// The representation stores, for every vertex u, the slice adj[u] of
// neighbor ids indexed by port-1: adj[u][k-1] is the endpoint of the arc
// leaving u through port k. The inverse map ports[u] gives, for the i-th
// neighbor in adj[u], the port used by that neighbor to come back
// (backPort), enabling O(1) arc reversal.
//
// Freeze compacts the per-vertex rows into one contiguous CSR arena (a
// flat neighbor array plus a flat back-port array, rows in vertex order)
// that the same adj/backPort slice headers then view, so hot kernels
// iterating with Arcs/BackPorts walk contiguous memory with no pointer
// chasing. Mutations stay legal after Freeze — rows are capacity-clamped
// views, so AddEdge's append reallocates just the touched row — they only
// clear the frozen flag until the next Freeze re-compacts.
type Graph struct {
	adj      [][]NodeID // adj[u][k-1] = v for arc (u,v) on port k
	backPort [][]Port   // backPort[u][k-1] = port of v leading back to u
	edges    int
	frozen   bool   // true while every row views one contiguous CSR arena
	removed  []bool // removed[u]: vertex killed by RemoveVertex (nil: none)
	nRemoved int
}

// New returns an empty graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative order")
	}
	return &Graph{
		adj:      make([][]NodeID, n),
		backPort: make([][]Port, n),
	}
}

// Order returns the number of vertices n.
func (g *Graph) Order() int { return len(g.adj) }

// Size returns the number of edges (each counted once, not per arc).
func (g *Graph) Size() int { return g.edges }

// Degree returns deg(u), the number of port slots of u. On a graph that
// has never lost an edge this is the number of incident edges; after
// RemoveEdge/RemoveVertex it still counts dead slots, because the port
// label space 1..deg(u) — and with it every port-width in an encoded
// scheme — is stable across faults by contract. Use LiveDegree for the
// count of surviving edges.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// LiveDegree returns the number of live incident edges of u — Degree(u)
// minus the dead port slots left by removals.
func (g *Graph) LiveDegree(u NodeID) int {
	d := 0
	for _, v := range g.adj[u] {
		if v != DeadEnd {
			d++
		}
	}
	return d
}

// Removed reports whether u was killed by RemoveVertex. Removed vertices
// keep their id (Order never shrinks) but have no live arcs.
func (g *Graph) Removed(u NodeID) bool {
	return g.removed != nil && g.removed[u]
}

// LiveOrder returns the number of vertices not killed by RemoveVertex.
func (g *Graph) LiveOrder() int { return len(g.adj) - g.nRemoved }

// MaxDegree returns the maximum degree over all vertices (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := range g.adj {
		if len(g.adj[u]) > d {
			d = len(g.adj[u])
		}
	}
	return d
}

// AddNode appends a fresh isolated vertex and returns its id.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	g.backPort = append(g.backPort, nil)
	if g.removed != nil {
		g.removed = append(g.removed, false)
	}
	g.frozen = false
	return NodeID(len(g.adj) - 1)
}

// AddEdge inserts the edge {u, v}, assigning the next free port at each
// endpoint, and returns the two new port labels (pu at u, pv at v). It
// panics on self-loops and duplicate edges: the model is a simple graph.
func (g *Graph) AddEdge(u, v NodeID) (pu, pv Port) {
	if u == v {
		panic("graph: self-loop")
	}
	g.checkNode(u)
	g.checkNode(v)
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
	}
	if g.Removed(u) || g.Removed(v) {
		panic(fmt.Sprintf("graph: edge {%d,%d} touches a removed vertex", u, v))
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	pu = Port(len(g.adj[u]))
	pv = Port(len(g.adj[v]))
	g.backPort[u] = append(g.backPort[u], pv)
	g.backPort[v] = append(g.backPort[v], pu)
	g.edges++
	g.frozen = false
	return pu, pv
}

// HasEdge reports whether the edge {u, v} is present. O(min deg).
func (g *Graph) HasEdge(u, v NodeID) bool {
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// RemoveEdge deletes the edge {u, v} under the port-stability contract:
// every surviving port of u and v keeps its label, and the two slots the
// edge occupied become holes — Arcs/Neighbor report DeadEnd there and
// the matching back ports become NoPort. Degree (the port-slot count)
// is unchanged; LiveDegree drops by one at each endpoint. It panics if
// the edge is absent, mirroring AddEdge's duplicate panic.
func (g *Graph) RemoveEdge(u, v NodeID) {
	g.checkNode(u)
	g.checkNode(v)
	pu := g.PortTo(u, v)
	if pu == NoPort {
		panic(fmt.Sprintf("graph: no edge {%d,%d} to remove", u, v))
	}
	pv := g.backPort[u][pu-1]
	g.adj[u][pu-1] = DeadEnd
	g.backPort[u][pu-1] = NoPort
	g.adj[v][pv-1] = DeadEnd
	g.backPort[v][pv-1] = NoPort
	g.edges--
	g.frozen = false
}

// RemoveVertex kills v: every incident edge is removed (leaving holes at
// the surviving endpoints, per the RemoveEdge contract) and the vertex
// is flagged removed. Ids are stable — Order does not shrink, v simply
// has no live arcs and Removed(v) reports true. Re-adding edges at a
// removed vertex panics.
func (g *Graph) RemoveVertex(v NodeID) {
	g.checkNode(v)
	if g.Removed(v) {
		panic(fmt.Sprintf("graph: vertex %d already removed", v))
	}
	for k, w := range g.adj[v] {
		if w == DeadEnd {
			continue
		}
		bp := g.backPort[v][k]
		g.adj[w][bp-1] = DeadEnd
		g.backPort[w][bp-1] = NoPort
		g.adj[v][k] = DeadEnd
		g.backPort[v][k] = NoPort
		g.edges--
	}
	if g.removed == nil {
		g.removed = make([]bool, len(g.adj))
	}
	g.removed[v] = true
	g.nRemoved++
	g.frozen = false
}

// Neighbor returns the endpoint of the arc leaving u through port p, or
// DeadEnd when the edge that occupied the slot has been removed.
// It panics if p is not a valid port of u.
func (g *Graph) Neighbor(u NodeID, p Port) NodeID {
	if p < 1 || int(p) > len(g.adj[u]) {
		panic(fmt.Sprintf("graph: invalid port %d at vertex %d (degree %d)", p, u, len(g.adj[u])))
	}
	return g.adj[u][p-1]
}

// BackPort returns the port that Neighbor(u,p) uses for the reverse arc.
func (g *Graph) BackPort(u NodeID, p Port) Port {
	if p < 1 || int(p) > len(g.backPort[u]) {
		panic(fmt.Sprintf("graph: invalid port %d at vertex %d", p, u))
	}
	return g.backPort[u][p-1]
}

// PortTo returns the port of u whose arc leads to v, or NoPort if u and v
// are not adjacent.
func (g *Graph) PortTo(u, v NodeID) Port {
	for i, w := range g.adj[u] {
		if w == v {
			return Port(i + 1)
		}
	}
	return NoPort
}

// Neighbors appends the neighbors of u (in port order) to dst and returns
// the extended slice. Passing a reused buffer avoids allocation in hot
// loops.
func (g *Graph) Neighbors(u NodeID, dst []NodeID) []NodeID {
	return append(dst, g.adj[u]...)
}

// Arcs returns the neighbors of u indexed by port-1: Arcs(u)[k-1] is the
// endpoint of the arc leaving u through port k. This is the hot-loop arc
// accessor — iterate with a plain `for i, v := range g.Arcs(u)` (the port
// is i+1).
// After Freeze the returned slice is a view into one contiguous CSR
// arena shared by all vertices. The caller must not modify it.
func (g *Graph) Arcs(u NodeID) []NodeID { return g.adj[u] }

// BackPorts returns, indexed by port-1, the port each neighbor of u uses
// for its reverse arc: BackPorts(u)[k-1] is the port of Arcs(u)[k-1]
// leading back to u. Same layout and ownership rules as Arcs.
func (g *Graph) BackPorts(u NodeID) []Port { return g.backPort[u] }

// Freeze compacts the adjacency into a frozen CSR core: one contiguous
// neighbor array and one contiguous back-port array, rows laid out in
// vertex order, which every adj/backPort row then views. Arc iteration
// order is unchanged — port order, exactly as before — Freeze only moves
// where the rows live, so every observable result is bit-identical.
// It is idempotent and O(n + m); construction-time callers (APSP,
// distance sources, scheme builders) invoke it before fanning out
// workers, so the hot kernels always see the flat layout.
//
// Freeze is a structural mutation: like AddEdge it must not run
// concurrently with readers. Call it from the serial phase that owns the
// graph (all in-repo entry points do).
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	compactRows(g.adj, g.backPort, g.adj, g.backPort)
	g.frozen = true
}

// compactRows copies the src rows into one fresh contiguous arena per
// array and stores capacity-clamped views of it into dstAdj/dstBack —
// the clamp (off : off+d : off+d) is what keeps a later append on one
// row from bleeding into the next vertex's arcs. src and dst may alias
// (Freeze compacts in place; Clone targets a fresh graph).
func compactRows(srcAdj [][]NodeID, srcBack [][]Port, dstAdj [][]NodeID, dstBack [][]Port) {
	arcs := 0
	for u := range srcAdj {
		arcs += len(srcAdj[u])
	}
	dst := make([]NodeID, arcs)
	back := make([]Port, arcs)
	off := 0
	for u := range srcAdj {
		d := len(srcAdj[u])
		copy(dst[off:off+d], srcAdj[u])
		copy(back[off:off+d], srcBack[u])
		dstAdj[u] = dst[off : off+d : off+d]
		dstBack[u] = back[off : off+d : off+d]
		off += d
	}
}

// Frozen reports whether the adjacency currently views one contiguous
// CSR arena (true between a Freeze and the next mutation).
func (g *Graph) Frozen() bool { return g.frozen }

// PermutePorts relabels the ports of vertex u according to perm, where
// perm is a permutation of [0, deg(u)): the arc currently on port k+1
// moves to port perm[k]+1. Other vertices' labelings are untouched; back
// pointers on the neighbors are updated. This is the adversary's move in
// the paper's complete-graph example and in Definition 1's freedom to fix
// the labels of the arcs incident to constrained vertices.
func (g *Graph) PermutePorts(u NodeID, perm []int) {
	d := len(g.adj[u])
	if len(perm) != d {
		panic("graph: permutation length must equal degree")
	}
	seen := make([]bool, d)
	for _, p := range perm {
		if p < 0 || p >= d || seen[p] {
			panic("graph: not a permutation")
		}
		seen[p] = true
	}
	newAdj := make([]NodeID, d)
	newBack := make([]Port, d)
	for k, v := range g.adj[u] {
		newAdj[perm[k]] = v
		newBack[perm[k]] = g.backPort[u][k]
	}
	g.adj[u] = newAdj
	g.backPort[u] = newBack
	g.frozen = false
	// Fix neighbors' back pointers: the arc v->u that used to answer port
	// k+1 must now answer perm[k]+1. Holes have no reverse arc to fix.
	for k, v := range newAdj {
		if v == DeadEnd {
			continue
		}
		p := newBack[k] // port at v leading to u
		g.backPort[v][p-1] = Port(k + 1)
	}
}

// SortPortsByNeighbor relabels every vertex's ports so that neighbors
// appear in increasing id order. This produces the "natural" labeling used
// as the non-adversarial baseline in experiments.
func (g *Graph) SortPortsByNeighbor() {
	for u := range g.adj {
		d := len(g.adj[u])
		idx := make([]int, d)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return g.adj[u][idx[a]] < g.adj[u][idx[b]] })
		perm := make([]int, d)
		for newPos, old := range idx {
			perm[old] = newPos
		}
		g.PermutePorts(NodeID(u), perm)
	}
}

// Clone returns a deep copy of g. The copy is built directly into a
// contiguous CSR arena (two bulk allocations instead of 2n row
// allocations) and is therefore frozen regardless of g's state.
func (g *Graph) Clone() *Graph {
	h := &Graph{
		adj:      make([][]NodeID, len(g.adj)),
		backPort: make([][]Port, len(g.backPort)),
		edges:    g.edges,
		nRemoved: g.nRemoved,
	}
	if g.removed != nil {
		h.removed = make([]bool, len(g.removed))
		copy(h.removed, g.removed)
	}
	compactRows(g.adj, g.backPort, h.adj, h.backPort)
	h.frozen = true
	return h
}

// Validate checks the structural invariants: back pointers are mutually
// consistent, there are no self-loops or duplicate edges, holes are
// symmetric (a DeadEnd slot carries NoPort, removed vertices have no
// live arcs and no live arc targets one), and the edge count matches.
// It returns a descriptive error for the first violation. It is one
// O(n + m) pass with a single n-sized scratch allocation: duplicates
// are found by stamping each neighbor with its row's vertex.
func (g *Graph) Validate() error {
	arcs := 0
	stamp := make([]int32, len(g.adj)) // stamp[v] == u+1: v already seen in row u
	for u := range g.adj {
		if len(g.adj[u]) != len(g.backPort[u]) {
			return fmt.Errorf("vertex %d: adj/backPort length mismatch", u)
		}
		mark := int32(u + 1)
		for k, v := range g.adj[u] {
			if v == DeadEnd {
				if g.backPort[u][k] != NoPort {
					return fmt.Errorf("vertex %d: dead port %d keeps back port %d", u, k+1, g.backPort[u][k])
				}
				continue
			}
			if g.Removed(NodeID(u)) {
				return fmt.Errorf("removed vertex %d: live arc on port %d", u, k+1)
			}
			if int(v) >= 0 && int(v) < len(g.adj) && g.Removed(v) {
				return fmt.Errorf("vertex %d: port %d points at removed vertex %d", u, k+1, v)
			}
			if v == NodeID(u) {
				return fmt.Errorf("vertex %d: self-loop on port %d", u, k+1)
			}
			if int(v) < 0 || int(v) >= len(g.adj) {
				return fmt.Errorf("vertex %d: port %d points outside the graph", u, k+1)
			}
			if stamp[v] == mark {
				return fmt.Errorf("vertex %d: duplicate edge to %d", u, v)
			}
			stamp[v] = mark
			bp := g.backPort[u][k]
			if bp < 1 || int(bp) > len(g.adj[v]) {
				return fmt.Errorf("vertex %d port %d: back port %d out of range at %d", u, k+1, bp, v)
			}
			if g.adj[v][bp-1] != NodeID(u) {
				return fmt.Errorf("vertex %d port %d: back port %d at %d leads to %d, not back",
					u, k+1, bp, v, g.adj[v][bp-1])
			}
			arcs++
		}
	}
	if arcs != 2*g.edges {
		return fmt.Errorf("edge count %d inconsistent with %d arcs", g.edges, arcs)
	}
	return nil
}

// MaxSerializedOrder bounds the order a scheme container's GRAPH
// section may declare (internal/schemeio). That order is
// attacker-controlled and sizes every per-vertex array of the decoded
// graph; 2^22 vertices is far beyond every workload in this repository
// while keeping those arrays for the largest accepted graph around
// 250 MB.
const MaxSerializedOrder = 1 << 22

// FromCSR returns the frozen graph whose CSR arena is exactly nbr and
// back: vertex u owns the next deg[u] port slots, rows in vertex order,
// nbr holding each arc's endpoint and back its back port — the layout
// Freeze produces. The graph adopts nbr and back (the caller must not
// keep or modify them) and reads deg only here. The arrays must
// describe a hole-free simple graph: any violation of Validate's
// invariants, a length mismatch or an odd arc count returns an error,
// never a panic.
func FromCSR(deg []int32, nbr []NodeID, back []Port) (*Graph, error) {
	n := len(deg)
	if len(nbr) != len(back) || len(nbr)%2 != 0 {
		return nil, fmt.Errorf("graph: %d arcs and %d back ports do not pair into edges", len(nbr), len(back))
	}
	g := &Graph{
		adj:      make([][]NodeID, n),
		backPort: make([][]Port, n),
		edges:    len(nbr) / 2,
		frozen:   true,
	}
	off := 0
	for u, d := range deg {
		if d < 0 || int(d) > len(nbr)-off {
			return nil, fmt.Errorf("graph: degree %d of vertex %d overruns %d arcs", d, u, len(nbr))
		}
		end := off + int(d)
		g.adj[u] = nbr[off:end:end]
		g.backPort[u] = back[off:end:end]
		off = end
	}
	if off != len(nbr) {
		return nil, fmt.Errorf("graph: degrees sum to %d, arena holds %d arcs", off, len(nbr))
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Connected reports whether the live graph is connected (the paper's
// model assumes connectivity; generators guarantee it, padders preserve
// it). Removed vertices are excluded: the question after a fault is
// whether the survivors still form one component. The empty graph and
// the single vertex are connected.
func (g *Graph) Connected() bool {
	n := g.Order()
	if n-g.nRemoved <= 1 {
		return true
	}
	start := NodeID(-1)
	for u := 0; u < n; u++ {
		if !g.Removed(NodeID(u)) {
			start = NodeID(u)
			break
		}
	}
	visited := make([]bool, n)
	stack := []NodeID{start}
	visited[start] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if v != DeadEnd && !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n-g.nRemoved
}

// Edges returns all edges as pairs (u, v) with u < v, sorted
// lexicographically. Intended for tests and serialization.
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, g.edges)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				out = append(out, [2]NodeID{NodeID(u), v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// String renders a compact multi-line description, one vertex per line:
// "u: p1->v1 p2->v2 ...".
func (g *Graph) String() string {
	s := fmt.Sprintf("graph(n=%d, m=%d)\n", g.Order(), g.Size())
	for u := range g.adj {
		s += fmt.Sprintf("  %d:", u)
		for k, v := range g.adj[u] {
			if v == DeadEnd {
				s += fmt.Sprintf(" %d->dead", k+1)
				continue
			}
			s += fmt.Sprintf(" %d->%d", k+1, v)
		}
		s += "\n"
	}
	return s
}

func (g *Graph) checkNode(u NodeID) {
	if int(u) < 0 || int(u) >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, len(g.adj)))
	}
}

// ErrNotConnected is returned by helpers that require connectivity.
var ErrNotConnected = errors.New("graph: not connected")
