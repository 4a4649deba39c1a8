package shortest

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// DistanceSource abstracts WHERE exact distance rows come from — a dense
// precomputed table or per-row recomputation — without changing WHAT a
// measurement sees: both backends return bit-identical rows (a row is a
// pure function of graph, metric and source — BFS for the hop metric,
// Dijkstra under a weight assignment for the weighted one), so any
// report built on one backend is bit-identical to the same report built
// on the other. This is what lets the all-pairs evaluator in
// internal/evaluate trade the O(n²) table for O(workers·n) resident rows
// on graphs past RAM while keeping the EXPERIMENTS.md determinism
// contract intact, in both metrics.
type DistanceSource interface {
	// Order is the number of vertices covered by the source.
	Order() int
	// NewReader returns a row handle for one goroutine. Readers are NOT
	// safe for concurrent use — a worker pool takes one reader per
	// worker — but NewReader itself and the source behind the readers
	// are.
	NewReader() RowReader
	// ResidentRows is the bulk memory hint: an upper bound on how many
	// n-entry int32 rows the source keeps resident when read by the
	// given number of concurrent readers (workers <= 0 selects
	// GOMAXPROCS, par.Workers). Dense tables answer n regardless of workers;
	// streaming answers one row per worker.
	ResidentRows(workers int) int
}

// RowReader yields distance rows for one goroutine.
type RowReader interface {
	// Row returns the distance vector from src: row[v] = d_G(src, v),
	// Unreachable for vertices in other components. The slice is
	// read-only and only valid until the next Row call on the same
	// reader. Consecutive calls with the same src are cheap on every
	// backend, which is the access pattern of row-major pair evaluation.
	Row(src graph.NodeID) []int32
}

// RowBatcher names sources whose readers compute an aligned block of
// RowBatch consecutive rows per claim. No source in this module
// implements it any more: every reader computes one row per Row call.
// The declaration stays only for wrappers outside this module that
// still forward the capability.
type RowBatcher interface {
	RowBatch() int
}

// PairReader is optionally implemented by RowReaders that can answer one
// distance without materializing a whole row. Dist(u, v) has exactly the
// contract of Row(u)[v] — d_G(u, v), 0 for u == v, Unreachable across
// components, dead ports (w < 0) skipped — but may be far cheaper:
// single-pair callers (the serving tier's stretch queries) check for it
// and fall back to Row when it is absent. Like Row, it is NOT safe for
// concurrent use, and it never invalidates a row an earlier Row call on
// the same reader returned.
//
// Implemented by the dense table (*APSP, an index) and by the
// hop-metric streaming reader (NewStreamSource, a bidirectional BFS).
// Weighted streaming readers are row-only.
type PairReader interface {
	Dist(u, v graph.NodeID) int32
}

// --- dense backend: the precomputed APSP table ---

// NewReader implements DistanceSource: the table itself already satisfies
// RowReader (Row is an index into the dense table), and concurrent reads
// of an immutable table are safe, so every reader is the table.
func (a *APSP) NewReader() RowReader { return a }

// ResidentRows implements DistanceSource: a dense table keeps all n rows
// resident whatever the worker count.
func (a *APSP) ResidentRows(workers int) int { return a.n }

var _ DistanceSource = (*APSP)(nil)
var _ RowReader = (*APSP)(nil)
var _ PairReader = (*APSP)(nil)

// --- row kernels: the metric behind a streaming source ---

// rowFunc computes the distance row from src into dist — reusing dist
// when it is large enough, allocating a fresh row otherwise (dist may be
// nil) — and returns the row. A rowFunc owns whatever traversal scratch
// it carries across calls, so it is NOT safe for concurrent use; sources
// create one per reader via a rowKernel factory.
type rowFunc func(src graph.NodeID, dist []int32) []int32

// rowKernel is what parameterizes StreamSource by metric: the unweighted
// kernel recomputes rows by BFS, the weighted one by Dijkstra under a
// validated weight assignment. Both are pure per-row functions of
// (graph[, weights], source), which is exactly the property the backend
// bit-identity contract rests on.
type rowKernel func() rowFunc

// bfsKernel returns a factory of BFS row functions over g, each owning
// its queue scratch.
func bfsKernel(g *graph.Graph) rowKernel {
	return func() rowFunc {
		var queue []graph.NodeID
		return func(src graph.NodeID, dist []int32) []int32 {
			dist, queue = BFSInto(g, src, dist, queue)
			return dist
		}
	}
}

// dijkstraKernel returns a factory of Dijkstra row functions over (g, w),
// each owning its heap scratch.
func dijkstraKernel(g *graph.Graph, w Weights) rowKernel {
	return func() rowFunc {
		var pq DijkstraHeap
		return func(src graph.NodeID, dist []int32) []int32 {
			dist, pq = DijkstraInto(g, w, src, dist, pq)
			return dist
		}
	}
}

// --- streaming backend: per-reader on-demand row recomputation ---

// StreamSource recomputes each requested row into per-reader scratch
// buffers: distance memory is one row per reader — O(workers·n) under a
// worker pool — instead of O(n²), at the cost of one traversal per
// (reader, row) visit. Exhaustive and sampled row-major evaluation visit
// each row once per claiming worker, so the total traversal work is the
// same n rows a dense table pays up front. The kernel is BFS under
// NewStreamSource and Dijkstra under NewWeightedStreamSource; everything
// else — residency, reader discipline, determinism — is metric-blind.
type StreamSource struct {
	n      int
	kernel rowKernel
	// g is the hop-metric graph, nil under the weighted kernel; its
	// readers answer PairReader.Dist by bidirectional BFS over it.
	g *graph.Graph
}

// NewStreamSource returns a streaming source of BFS (hop metric) rows
// over g, one BFS per row, so each reader keeps exactly one row
// resident — a contract recorded experiment output depends on. The graph
// is frozen to its CSR layout here — the last serial point before
// readers fan out across workers — so every per-row traversal walks
// contiguous arcs. Its readers are also PairReaders: a single distance
// costs a bidirectional BFS instead of a row.
func NewStreamSource(g *graph.Graph) *StreamSource {
	g.Freeze()
	return &StreamSource{n: g.Order(), kernel: bfsKernel(g), g: g}
}

// NewWeightedStreamSource returns a streaming source of Dijkstra rows
// under w — the weighted metric with the same O(workers·n) residency
// contract as NewStreamSource. Weights are validated here, the one
// serial point, so readers never see a malformed assignment.
func NewWeightedStreamSource(g *graph.Graph, w Weights) (*StreamSource, error) {
	if err := w.Validate(g); err != nil {
		return nil, err
	}
	g.Freeze()
	return &StreamSource{n: g.Order(), kernel: dijkstraKernel(g, w)}, nil
}

// Order implements DistanceSource.
func (s *StreamSource) Order() int { return s.n }

// NewReader implements DistanceSource.
func (s *StreamSource) NewReader() RowReader {
	if s.g != nil {
		return &bfsStreamReader{streamReader: streamReader{compute: s.kernel()}, pair: pairBFS{g: s.g}}
	}
	return &streamReader{compute: s.kernel()}
}

// ResidentRows implements DistanceSource: each reader keeps one row
// resident, so the bound is one row per worker, capped at n.
func (s *StreamSource) ResidentRows(workers int) int {
	return par.Workers(workers, s.n)
}

type streamReader struct {
	compute rowFunc
	src     graph.NodeID
	valid   bool
	dist    []int32
}

func (r *streamReader) Row(src graph.NodeID) []int32 {
	if r.valid && r.src == src {
		return r.dist
	}
	r.dist = r.compute(src, r.dist)
	r.src, r.valid = src, true
	return r.dist
}

// bfsStreamReader is the hop-metric reader: Row recomputes one
// BFS row like every streamReader, and Dist answers one pair from the
// resident row when it is u's, by bidirectional BFS otherwise. The pair
// search has its own scratch, so Dist never overwrites a returned row.
type bfsStreamReader struct {
	streamReader
	pair pairBFS
}

// Dist implements PairReader.
func (r *bfsStreamReader) Dist(u, v graph.NodeID) int32 {
	if r.valid && r.src == u {
		return r.dist[v]
	}
	return r.pair.dist(u, v)
}

var _ DistanceSource = (*StreamSource)(nil)
var _ PairReader = (*bfsStreamReader)(nil)
