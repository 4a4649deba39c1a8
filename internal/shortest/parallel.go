package shortest

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// NewAPSPParallel computes the all-pairs table with a pool of workers.
// Rows are independent, so the computation is embarrassingly parallel;
// on the multi-thousand-vertex Theorem 1 instances this is the dominant
// preprocessing cost. workers <= 0 selects GOMAXPROCS (par.Workers).
// Workers claim MSBFSWidth-source batches and advance all lanes of a
// batch through one direction-optimizing MS-BFS (MSBFSInto): sparse
// levels share one scan of each frontier vertex's arcs, bulk levels one
// bottom-up sweep of the vertices some lane has not reached, instead of
// one BFS per row. The graph is frozen to its CSR layout before the
// pool fans out, every row is carved out of one contiguous n×n block (so
// the finished table is row-major contiguous, like the rows the
// streaming backends hand out), and each worker reuses its MS-BFS
// scratch across the batches it wins.
//
// Each row is bit-identical to BFS from its source, the serial
// one-BFS-per-row reference the conformance tests compare against (rows
// do not interact — see MSBFSInto for why the batched rows cannot
// differ).
func NewAPSPParallel(g *graph.Graph, workers int) *APSP {
	g.Freeze()
	n := g.Order()
	a := &APSP{n: n, dist: make([][]int32, n)}
	block := make([]int32, n*n)
	ids := make([]graph.NodeID, n) // ids[lo:hi] are the sources of one batch
	for u := range n {
		a.dist[u] = block[u*n : (u+1)*n : (u+1)*n]
		ids[u] = graph.NodeID(u)
	}
	newScratch := func() *MSBFSScratch { return &MSBFSScratch{} }
	_ = par.For(workers, (n+MSBFSWidth-1)/MSBFSWidth, newScratch, func(scr *MSBFSScratch, c int) error {
		lo, hi := c*MSBFSWidth, min((c+1)*MSBFSWidth, n)
		MSBFSInto(g, ids[lo:hi], block[lo*n:hi*n:hi*n], scr)
		return nil // a BFS cannot fail
	})
	return a
}
