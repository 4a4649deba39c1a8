package landmark

import (
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// NewStreamed builds the scheme bit-identically to New — same landmarks,
// nearest assignments, ports, clusters, address paths and LocalBits for
// the same Options — without ever materializing the n² distance table.
// It is the construction path behind `-distmode stream` at orders
// where the dense table no longer fits in RAM.
//
// The trick is to turn every column access of New into a read of some
// BFS tree we are willing to keep: shortest.BFSTreeInto computes, in one
// closure-free pass per root, both the distance row and the canonical
// first-arc vector (the lowest port of each vertex one step closer to
// the root — exactly New's firstArc tie-break, by symmetry of d).
//
//   - |L| landmark-rooted trees give the distance-to-landmark rows AND
//     the whole lmPort table (O(|L|·n) memory, which the lmPort tables
//     the scheme must store are anyway);
//   - one destination-rooted tree at a time, sharded over a worker pool
//     into per-worker scratch (O(workers·n) memory), answers cluster
//     membership, the cluster port at every member, and the address path
//     l(v) -> v — all direct reads of the parent vector, no per-member
//     arc scan.
//
// workers <= 0 selects GOMAXPROCS.
func NewStreamed(g *graph.Graph, opt Options, workers int) (*Scheme, error) {
	n := g.Order()
	if n == 0 {
		return nil, graph.ErrNotConnected
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Connectivity gate, same contract as New: one row instead of n.
	row0 := shortest.BFS(g, 0)
	for _, d := range row0 {
		if d == shortest.Unreachable {
			return nil, graph.ErrNotConnected
		}
	}
	s := newShell(g, opt) // freezes g: workers below only read the CSR arcs
	k := len(s.landmarks)

	// Landmark-rooted trees: distToLm[i][v] = d(landmarks[i], v) = d(v, l_i),
	// lmParent[i][v] = lowest port of v one step closer to l_i (NoPort at
	// the landmark itself). Queues are per-worker scratch; the dist and
	// parent vectors are retained by construction.
	distToLm := make([][]int32, k)
	lmParent := make([][]graph.Port, k)
	queues := make([][]graph.NodeID, workers)
	parallelFor(workers, k, func(w int, i int) {
		distToLm[i], lmParent[i], queues[w] = shortest.BFSTreeInto(g, s.landmarks[i], nil, nil, queues[w])
	})

	// Nearest landmark (ties to the smallest id: landmarks are sorted and
	// the comparison is strict, exactly as in New).
	for v := 0; v < n; v++ {
		bi := 0
		bd := distToLm[0][v]
		for i := 1; i < k; i++ {
			if d := distToLm[i][v]; d < bd {
				bi, bd = i, d
			}
		}
		s.nearest[v] = s.landmarks[bi]
	}

	// lmPort is the transpose of the landmark parent vectors: lmPort[x][i]
	// is the canonical first arc of x toward landmark i, which BFSTreeInto
	// already resolved (and left NoPort at the landmark itself, as New
	// stores it).
	parallelFor(workers, n, func(_ int, x int) {
		ports := make([]graph.Port, k)
		for i := range ports {
			ports[i] = lmParent[i][x]
		}
		s.lmPort[x] = ports
	})

	// Per-destination sweep: one first-arc tree rooted at v answers every
	// d(·,v) column New reads — cluster membership d(x,v) < d(v,l(v)), the
	// cluster port at each member x (the parent vector at x), and the
	// address path l(v) -> v (follow parents from l(v)). Cluster entries
	// are collected per destination and folded into the per-router maps
	// serially afterwards (map values are keyed lookups, so insertion
	// order cannot matter).
	type member struct {
		x graph.NodeID
		p graph.Port
	}
	contrib := make([][]member, n)
	dists := make([][]int32, workers)
	parents := make([][]graph.Port, workers)
	parallelFor(workers, n, func(w int, v int) {
		vi := graph.NodeID(v)
		dists[w], parents[w], queues[w] = shortest.BFSTreeInto(g, vi, dists[w], parents[w], queues[w])
		dv, par := dists[w], parents[w]
		bound := distToLm[s.lmIndex[s.nearest[v]]][v]
		var ms []member
		for x := 0; x < n; x++ {
			xi := graph.NodeID(x)
			if xi == vi || dv[x] >= bound {
				continue
			}
			ms = append(ms, member{x: xi, p: par[x]})
		}
		contrib[v] = ms
		var pp []graph.Port
		x := s.nearest[v]
		for x != vi {
			p := par[x]
			pp = append(pp, p)
			x = g.Arcs(x)[p-1]
		}
		s.pathPorts[v] = pp
	})
	for x := 0; x < n; x++ {
		s.cluster[x] = make(map[graph.NodeID]graph.Port)
	}
	for v := 0; v < n; v++ {
		for _, m := range contrib[v] {
			s.cluster[m.x][graph.NodeID(v)] = m.p
		}
	}
	s.fillBits()
	return s, nil
}

// parallelFor runs body(worker, i) for i in [0, n) over a pool, giving
// each worker a stable index so bodies can address per-call, per-worker
// scratch without synchronization.
func parallelFor(workers, n int, body func(worker, i int)) {
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				body(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
