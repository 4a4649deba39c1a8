package shortest

import (
	"runtime"
	"sync"

	"repro/internal/graph"
)

// NewAPSPParallel computes the all-pairs table with a pool of workers.
// Rows are independent, so the computation is embarrassingly parallel;
// on the multi-thousand-vertex Theorem 1 instances this is the dominant
// preprocessing cost. workers <= 0 selects GOMAXPROCS. Workers claim
// MSBFSWidth-source batches and advance all lanes of a batch through one
// shared scan of each frontier vertex's arcs (MSBFSInto), instead of one
// BFS per row. The graph is frozen to its CSR layout before the pool
// fans out, every row is carved out of one contiguous n×n block (so the
// finished table is row-major contiguous, like the rows the streaming
// backends hand out), and each worker reuses its MS-BFS scratch across
// the batches it wins.
//
// Each row is bit-identical to BFS from its source, the serial
// one-BFS-per-row reference the conformance tests compare against (rows
// do not interact — see MSBFSInto for why the batched rows cannot
// differ). The row-sharded decomposition here is the template for the
// all-pairs routing evaluator in internal/evaluate, which extends it
// with mergeable accumulators for quantities that are not per-row
// independent (means, maxima, histograms).
func NewAPSPParallel(g *graph.Graph, workers int) *APSP {
	g.Freeze()
	n := g.Order()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := &APSP{n: n, dist: make([][]int32, n)}
	if n == 0 {
		return a
	}
	block := make([]int32, n*n)
	for u := 0; u < n; u++ {
		a.dist[u] = block[u*n : (u+1)*n : (u+1)*n]
	}
	claims := (n + MSBFSWidth - 1) / MSBFSWidth
	if workers > claims {
		workers = claims
	}
	src := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := &MSBFSScratch{}
			srcs := make([]graph.NodeID, 0, MSBFSWidth)
			for start := range src {
				end := start + MSBFSWidth
				if end > n {
					end = n
				}
				srcs = srcs[:0]
				for u := start; u < end; u++ {
					srcs = append(srcs, graph.NodeID(u))
				}
				MSBFSInto(g, srcs, block[start*n:end*n:end*n], scr)
			}
		}()
	}
	for u := 0; u < n; u += MSBFSWidth {
		src <- u
	}
	close(src)
	wg.Wait()
	return a
}
