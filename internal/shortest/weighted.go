package shortest

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/xrand"
)

// Weights assigns a positive cost to every arc: Weights[u][k] is the cost
// of the arc leaving u through port k+1. The referenced schemes of the
// paper's Table 1 comments ([1], [2]) support non-uniform arc costs; this
// file supplies the weighted substrate so the repository's schemes can be
// exercised in that regime too.
type Weights [][]int32

// UniformWeights returns the all-ones cost assignment (reduces weighted
// computations to the hop metric).
func UniformWeights(g *graph.Graph) Weights {
	w := make(Weights, g.Order())
	for u := range w {
		w[u] = make([]int32, g.Degree(graph.NodeID(u)))
		for k := range w[u] {
			w[u][k] = 1
		}
	}
	return w
}

// RandomWeights returns a symmetric assignment with every edge cost drawn
// uniformly from [1, maxW] off r. The draw order is fixed (vertices in
// increasing id, arcs in port order, one draw per edge at its lower
// endpoint), so a (graph, maxW, seed) triple names one weight assignment
// everywhere — experiments, CLIs and tests share this generator. Costs
// are int32 with MaxInt32 reserved for Unreachable, so maxW clamps to
// MaxInt32-1: the generator can never emit a wrapped or sentinel cost
// (CLIs reject larger -maxweight values up front, see cliutil).
func RandomWeights(g *graph.Graph, maxW int, r *xrand.Rand) Weights {
	w := UniformWeights(g)
	if maxW <= 1 {
		return w
	}
	if maxW > math.MaxInt32-1 {
		maxW = math.MaxInt32 - 1
	}
	for u := 0; u < g.Order(); u++ {
		backs := g.BackPorts(graph.NodeID(u))
		for i, v := range g.Arcs(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				c := int32(r.Intn(maxW) + 1)
				w[u][i] = c
				w[v][backs[i]-1] = c
			}
		}
	}
	return w
}

// Validate checks shape, positivity and symmetry (the cost of an edge
// must be the same in both directions, matching the symmetric-digraph
// model). Shape is checked for EVERY vertex before any symmetry probe
// dereferences a neighbor's row, so malformed weights — a row shorter
// than its vertex's degree — are reported as errors instead of panicking
// partway through the scan.
func (w Weights) Validate(g *graph.Graph) error {
	if len(w) != g.Order() {
		return fmt.Errorf("shortest: weights cover %d vertices, graph has %d", len(w), g.Order())
	}
	for u := range w {
		if len(w[u]) != g.Degree(graph.NodeID(u)) {
			return fmt.Errorf("shortest: vertex %d has %d weights for degree %d", u, len(w[u]), g.Degree(graph.NodeID(u)))
		}
	}
	for u := range w {
		for k, c := range w[u] {
			if c <= 0 {
				return fmt.Errorf("shortest: non-positive weight %d on arc (%d, port %d)", c, u, k+1)
			}
			v := g.Neighbor(graph.NodeID(u), graph.Port(k+1))
			if v == graph.DeadEnd {
				continue // a removed edge has no far end to agree with
			}
			back := g.BackPort(graph.NodeID(u), graph.Port(k+1))
			if w[v][back-1] != c {
				return fmt.Errorf("shortest: asymmetric weight on edge {%d,%d}: %d vs %d", u, v, c, w[v][back-1])
			}
		}
	}
	return nil
}

// Dijkstra returns weighted distances from src under w.
func Dijkstra(g *graph.Graph, w Weights, src graph.NodeID) []int32 {
	dist, _ := DijkstraInto(g, w, src, nil, nil)
	return dist
}

// DijkstraInto is Dijkstra with caller-owned scratch: dist and the heap
// buffer are reused when large enough and reallocated otherwise, and both
// are returned so a streaming reader can run one traversal per requested
// row with zero steady-state allocation — the weighted analogue of
// BFSInto. The heap is an index-based binary heap over the slice itself
// (manual sift up/down, lazy deletion of stale entries), so pushes and
// pops never box through the container/heap interface.
//
// Relaxation is evaluated in int64 and saturates at Unreachable: since
// weights can be as large as MaxInt32-1 and Unreachable is the MaxInt32
// sentinel, the int32 sum d(u) + w(u,v) of the naive relaxation can wrap
// negative and corrupt the whole row. Any path cost reaching Unreachable
// or beyond is reported as Unreachable — distances stay non-negative and
// the row stays a deterministic function of (graph, weights, source),
// whatever the heap's tie order.
//
//repolint:hotpath
func DijkstraInto(g *graph.Graph, w Weights, src graph.NodeID, dist []int32, pq DijkstraHeap) ([]int32, DijkstraHeap) {
	n := g.Order()
	if cap(dist) < n {
		dist = make([]int32, n)
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	if cap(pq) < 1 {
		pq = make([]heapItem, 0, 64)
	}
	pq = pq[:0]
	pq = append(pq, heapItem{node: src, dist: 0})
	for len(pq) > 0 {
		it := pq[0]
		last := len(pq) - 1
		pq[0] = pq[last]
		pq = pq[:last]
		siftDown(pq, 0)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		u := it.node
		du := int64(it.dist)
		wu := w[u]
		for i, v := range g.Arcs(u) {
			if v < 0 {
				continue // dead slot left by a removed edge
			}
			// int64 arithmetic: du < Unreachable and wu[i] <= MaxInt32, so
			// the sum is exact; a sum at or past Unreachable can never beat
			// dist[v] <= Unreachable, so overflowing paths saturate away.
			if nd := du + int64(wu[i]); nd < int64(dist[v]) {
				dist[v] = int32(nd)
				pq = append(pq, heapItem{node: v, dist: int32(nd)})
				siftUp(pq, len(pq)-1)
			}
		}
	}
	return dist, pq
}

// NewWeightedAPSPParallel computes the weighted all-pairs table with a
// pool of workers, one Dijkstra per source — the weighted mirror of
// NewAPSPParallel. The APSP type is shared with the unweighted path, so
// all downstream consumers (tables, forced arcs, stretch measurement
// against weighted distance) work unchanged. Rows are independent and
// each row is a deterministic function of (graph, weights, source), so
// every row equals Dijkstra from its source at every worker count.
// Rows are carved out of one contiguous n×n block and each worker
// reuses its heap scratch. workers <= 0 selects GOMAXPROCS
// (par.Workers).
func NewWeightedAPSPParallel(g *graph.Graph, w Weights, workers int) (*APSP, error) {
	if err := w.Validate(g); err != nil {
		return nil, err
	}
	g.Freeze()
	n := g.Order()
	a := &APSP{n: n, dist: make([][]int32, n)}
	block := make([]int32, n*n)
	_ = par.For(workers, n, func() *DijkstraHeap { return new(DijkstraHeap) }, func(pq *DijkstraHeap, u int) error {
		a.dist[u], *pq = DijkstraInto(g, w, graph.NodeID(u), block[u*n:(u+1)*n:(u+1)*n], *pq)
		return nil // w was validated above
	})
	return a, nil
}

// heapItem is one entry of the index-based binary heap DijkstraInto
// maintains over a plain slice.
type heapItem struct {
	node graph.NodeID
	dist int32
}

// DijkstraHeap is the reusable priority-queue buffer of DijkstraInto —
// opaque to callers, who only hold it between calls the way streaming
// readers hold their BFS queue.
type DijkstraHeap []heapItem

// siftUp restores the heap order after appending at index i.
func siftUp(h []heapItem, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the heap order after replacing the root at index i.
func siftDown(h []heapItem, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && h[r].dist < h[l].dist {
			least = r
		}
		if h[i].dist <= h[least].dist {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
