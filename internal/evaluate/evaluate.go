// Package evaluate is the concurrent all-pairs evaluation engine behind
// the experiment harness: it measures the quantities the paper defines
// over every ordered (source, destination) pair — the stretch factor
// s(R, G) of Section 1 and the memory requirement MEM(G,R,x) aggregated
// over routers — by sharding the n² pair space across a worker pool, the
// same row-parallel decomposition that internal/shortest uses for its
// all-pairs BFS (shortest.NewAPSPParallel).
//
// Determinism is a hard requirement here: EXPERIMENTS.md records exact
// numbers, so a report must not depend on the worker count or on
// goroutine scheduling. The engine guarantees this by construction:
//
//   - pairs are sharded by source row, and each row is accumulated
//     serially by whichever worker claims it;
//   - per-row accumulators hold only exactly-mergeable state — integer
//     counters, integer numerator sums keyed by denominator, and
//     argmax/maximum fields — and are merged in increasing row order
//     after all workers finish;
//   - the mean is derived from the merged integer sums in increasing
//     denominator order, so the floating-point evaluation sequence is
//     fixed no matter how rows were interleaved at runtime.
//
// The result is bit-identical for every worker count. This package is
// the only code that measures stretch and memory over the pair space:
// internal/routing keeps the model and the single-pair simulator, and
// the serial reference loops the tests compare against live in the root
// package's tests. One other sweep exists: faults.Measure also walks
// every pair, because it classifies each failed pair by reason where
// this engine stops at the first failure (its entry in the duplicate
// ledger, duplicates_test.go, records why it stays).
//
// A deterministic sampling mode (Options.Sample, seeded through
// internal/xrand) evaluates a uniform subset of the ordered pairs so that
// graphs far beyond exhaustive n² reach remain measurable; the sampled
// pair set depends only on (n, seed, sample size), never on the worker
// count. This follows the bounded-delay spirit of enumeration-complexity
// evaluators: results stream into fixed-size accumulators, and no
// per-pair state survives the measurement.
//
// Callers must pass schemes whose Init/Port/Next/LocalBits are safe for
// concurrent readers. Every scheme in internal/scheme qualifies: they
// precompute their state at construction and only read it afterwards.
package evaluate

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// DistMode selects how Stretch and WeightedStretch obtain distance rows
// when the caller did not hand them an explicit DistanceSource. Every
// mode yields bit-identical reports — BFS and Dijkstra rows are
// deterministic functions of (graph, metric, source) — so the mode only
// moves the memory/time tradeoff, never the numbers, in either metric.
type DistMode int

const (
	// DistDense uses the apsp argument when given and otherwise computes
	// a dense table with the run's worker budget — the default.
	DistDense DistMode = iota
	// DistStream recomputes each claimed source row with a per-worker
	// BFS: O(workers·n) resident distance memory instead of O(n²), the
	// beyond-RAM mode.
	DistStream
)

// String names the mode as the CLIs spell it.
func (m DistMode) String() string {
	switch m {
	case DistStream:
		return "stream"
	default:
		return "dense"
	}
}

// ParseDistMode maps a -distmode flag value to a DistMode; "" names the
// dense default.
func ParseDistMode(s string) (DistMode, error) {
	switch s {
	case "", "dense":
		return DistDense, nil
	case "stream":
		return DistStream, nil
	default:
		return DistDense, fmt.Errorf("evaluate: unknown distance mode %q (want dense or stream)", s)
	}
}

// Options configures one evaluation run.
type Options struct {
	// Workers is the size of the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Sample, when positive, evaluates that many ordered pairs drawn
	// uniformly (without replacement) from the n(n-1) ordered pairs using
	// Seed. Zero means exhaustive; a budget covering every pair also
	// falls back to exhaustive, so one Sample value works across
	// workloads of mixed size.
	Sample int
	// Seed drives the sampling draw; ignored in exhaustive mode.
	Seed uint64
	// MaxHops bounds each simulated route; 0 selects the routing default.
	MaxHops int
	// Distances, when non-nil, is the distance backend for Stretch and
	// takes precedence over DistMode and the apsp argument.
	Distances shortest.DistanceSource
	// DistMode selects the backend built when Distances is nil. Stream
	// wins over a non-nil apsp argument, so a harness-wide -distmode
	// flag takes effect even in runners that precomputed a dense table
	// for scheme construction.
	DistMode DistMode
}

// Source resolves the distance backend a hop-metric Stretch run reads
// from, given the optional dense table the caller may already hold.
// Exposed so harnesses can meter a run's resident-row bound
// (DistanceSource.ResidentRows) without duplicating the precedence
// rules. It is SourceFor with a nil weight assignment.
func (o Options) Source(g *graph.Graph, apsp *shortest.APSP) (shortest.DistanceSource, error) {
	return o.SourceFor(g, nil, apsp)
}

// SourceFor resolves the distance backend for either metric: w == nil
// selects the hop metric (BFS rows), a non-nil w the weighted metric
// (Dijkstra rows under w). Precedence is unchanged from the historical
// hop-only resolver: an explicit Distances wins outright (the caller
// vouches it matches the metric — that is what memreq does after
// resolving once and metering the same source it evaluates against);
// then stream mode, which never materializes the n² table in either
// metric; then the caller's dense table; then a fresh dense build
// with the run's worker budget. A (metric, mode) combination this
// resolver cannot serve is an explicit error — never a silent
// substitution of a dense table, which is what the weighted path used to
// do for -distmode stream.
func (o Options) SourceFor(g *graph.Graph, w shortest.Weights, apsp *shortest.APSP) (shortest.DistanceSource, error) {
	if o.Distances != nil {
		return o.Distances, nil
	}
	switch o.DistMode {
	case DistDense:
		if apsp != nil {
			return apsp, nil
		}
		if w == nil {
			return shortest.NewAPSPParallel(g, o.Workers), nil
		}
		return shortest.NewWeightedAPSPParallel(g, w, o.Workers)
	case DistStream:
		if w == nil {
			return shortest.NewStreamSource(g), nil
		}
		return shortest.NewWeightedStreamSource(g, w)
	}
	metric := "hop"
	if w != nil {
		metric = "weighted"
	}
	return nil, fmt.Errorf("evaluate: distance mode %d cannot serve the %s metric", int(o.DistMode), metric)
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// HistBuckets is the number of stretch histogram buckets: 12 quarter-wide
// buckets covering [1, 4) plus one overflow bucket for stretch >= 4.
const HistBuckets = 13

// Histogram counts pairs by realized stretch. Bucket i < 12 counts
// stretch values in [1 + i/4, 1 + (i+1)/4); bucket 12 counts >= 4.
// Values below 1 (impossible for true stretch) clamp into bucket 0.
type Histogram struct {
	Buckets [HistBuckets]int64
}

// add files one stretch observation.
func (h *Histogram) add(s float64) {
	i := int((s - 1) * 4)
	if i < 0 {
		i = 0
	}
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.Buckets[i]++
}

// BucketBounds returns the half-open range [lo, hi) of bucket i; the last
// bucket's hi is +Inf in spirit and reported as -1.
func BucketBounds(i int) (lo, hi float64) {
	lo = 1 + float64(i)/4
	if i == HistBuckets-1 {
		return lo, -1
	}
	return lo, 1 + float64(i+1)/4
}

// Report aggregates one stretch evaluation run over the measured pairs.
type Report struct {
	Pairs     int     // ordered pairs measured
	Max       float64 // max ratio (the paper's stretch factor in routing runs)
	Mean      float64 // mean ratio over measured pairs
	WorstU    graph.NodeID
	WorstV    graph.NodeID
	MaxHops   int   // longest walk seen
	TotalHops int64 // total hops over all measured pairs
	Hist      Histogram
	Sampled   bool // true when Options.Sample was in effect
}

// PairFunc measures one ordered pair (u, v), u != v: it returns the
// measured ratio num/den (e.g. routing path length over distance), and
// the number of hops walked to measure it (0 when not applicable). An
// error marks the pair failed; the engine reports the error of the
// smallest failing (u, v) in row-major order.
type PairFunc func(u, v graph.NodeID) (num, den int32, hops int, err error)

// denseDenLimit bounds the flat denominator index: hop distances on the
// families the suite sweeps are small integers (diameters in the tens),
// while weighted path costs (WeightedStretch denominators) can be any
// positive int32 and high-diameter graphs can reach hop distances in
// the thousands — denominators at or past the limit overflow into a
// small map instead. The limit also caps per-row accumulator memory at
// 8·denseDenLimit bytes across all n live rows (2 KB × n worst case),
// so no denominator distribution can blow the merge up.
const denseDenLimit = 1 << 8

// rowAcc is the per-source-row accumulator. All fields merge exactly:
// integers add, maxima compare, and the numerator sums are keyed by
// denominator so the mean can be recovered in a fixed order later. The
// denominator index is a flat slice for denominators below
// denseDenLimit — the per-pair accumulation costs an array add instead
// of a map probe on every hop-metric run — with a map fallback for the
// sparse large denominators of weighted runs.
type rowAcc struct {
	pairs     int
	max       float64
	worstV    graph.NodeID
	maxHops   int
	totalHops int64
	hist      Histogram
	numByDen  []int64         // numByDen[den] = Σ num over pairs with that den; 0 = absent
	bigDens   map[int32]int64 // denominators >= denseDenLimit (weighted costs)
	err       error           // first error within the row, in destination order
}

// addNum accumulates one pair's numerator under its denominator, growing
// the dense index to cover den when needed.
func (acc *rowAcc) addNum(den int32, num int64) {
	if den >= denseDenLimit {
		if acc.bigDens == nil {
			acc.bigDens = make(map[int32]int64, 4)
		}
		acc.bigDens[den] += num
		return
	}
	if need := int(den) + 1; need > len(acc.numByDen) {
		if half := 2 * len(acc.numByDen); need < half {
			need = half
		}
		grown := make([]int64, need)
		copy(grown, acc.numByDen)
		acc.numByDen = grown
	}
	acc.numByDen[den] += num
}

// Pairs runs f over the ordered pair space of an n-vertex instance —
// exhaustively or over a deterministic sample — and merges the per-row
// accumulators in row order. The report is independent of Workers; the
// first error in row-major pair order aborts with a nil report.
func Pairs(n int, f PairFunc, opt Options) (*Report, error) {
	return pairsFrom(n, func() PairFunc { return f }, opt)
}

// pairsFrom is Pairs with a per-worker PairFunc factory: newF is called
// once inside each worker goroutine, so the returned function may own
// mutable per-worker state — a streaming distance reader with its BFS
// scratch is the motivating case. Determinism is untouched: rows are
// still claimed per source and folded in fixed order, and every
// per-worker PairFunc must compute identical values for identical pairs.
func pairsFrom(n int, newF func() PairFunc, opt Options) (*Report, error) {
	rep := &Report{}
	if n <= 1 {
		return rep, nil
	}
	sampled, err := samplePlan(n, opt)
	if err != nil {
		return nil, err
	}
	rep.Sampled = sampled != nil

	rows := make([]rowAcc, n)
	workers := opt.workers(n)
	src := make(chan int, workers)
	// Early abort: once some row fails, rows after the lowest failed row
	// can never contribute (the merge below stops at that row's error),
	// so workers skip them. Rows before it must still run — they might
	// hold an even earlier error — which keeps the reported first error
	// deterministic.
	failedRow := int64(n)
	var failedMu sync.Mutex
	loadFailed := func() int64 {
		failedMu.Lock()
		defer failedMu.Unlock()
		return failedRow
	}
	storeFailed := func(u int64) {
		failedMu.Lock()
		if u < failedRow {
			failedRow = u
		}
		failedMu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := newF()
			for u := range src {
				if int64(u) > loadFailed() {
					continue
				}
				if sampled != nil {
					evalRow(&rows[u], graph.NodeID(u), sampled[u], f)
				} else {
					evalRowAll(&rows[u], graph.NodeID(u), n, f)
				}
				if rows[u].err != nil {
					storeFailed(int64(u))
				}
			}
		}()
	}
	for u := 0; u < n; u++ {
		src <- u
	}
	close(src)
	wg.Wait()

	// Deterministic merge in increasing row order.
	var numByDen []int64
	var bigDens map[int32]int64
	for u := range rows {
		r := &rows[u]
		if r.err != nil {
			return nil, r.err
		}
		rep.Pairs += r.pairs
		rep.TotalHops += r.totalHops
		if r.maxHops > rep.MaxHops {
			rep.MaxHops = r.maxHops
		}
		if r.max > rep.Max {
			rep.Max = r.max
			rep.WorstU, rep.WorstV = graph.NodeID(u), r.worstV
		}
		for i, c := range r.hist.Buckets {
			rep.Hist.Buckets[i] += c
		}
		if len(r.numByDen) > len(numByDen) {
			grown := make([]int64, len(r.numByDen))
			copy(grown, numByDen)
			numByDen = grown
		}
		for den, num := range r.numByDen {
			numByDen[den] += num
		}
		for den, num := range r.bigDens {
			if bigDens == nil {
				bigDens = make(map[int32]int64, len(r.bigDens))
			}
			bigDens[den] += num
		}
	}
	// Fold through the one shared routine (see MeanFromSums: the exact
	// float evaluation order is the contract). The map is tiny — one
	// entry per distinct denominator.
	sums := bigDens
	if sums == nil {
		sums = make(map[int32]int64, len(numByDen))
	}
	for den, num := range numByDen {
		if num != 0 {
			sums[int32(den)] = num
		}
	}
	rep.Mean = MeanFromSums(sums, rep.Pairs)
	return rep, nil
}

// MeanFromSums evaluates Σ_d num(d)/d in increasing denominator order and
// divides by the pair count. Accumulating integer numerators per
// denominator and folding them in a fixed order makes the mean
// independent of pair evaluation order, which is what lets the engine
// shard pairs across workers and still report bit-identically at every
// worker count. Every mean over per-pair ratios (faults.Measure too)
// MUST use this one fold: the exact float evaluation order is the
// contract.
func MeanFromSums(numByDen map[int32]int64, pairs int) float64 {
	if pairs == 0 {
		return 0
	}
	dens := make([]int32, 0, len(numByDen))
	for den := range numByDen {
		dens = append(dens, den)
	}
	slices.Sort(dens)
	var sum float64
	for _, den := range dens {
		sum += float64(numByDen[den]) / float64(den)
	}
	return sum / float64(pairs)
}

func evalRowAll(acc *rowAcc, u graph.NodeID, n int, f PairFunc) {
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == u {
			continue
		}
		evalPair(acc, u, graph.NodeID(v), f)
		if acc.err != nil {
			return
		}
	}
}

func evalRow(acc *rowAcc, u graph.NodeID, dsts []graph.NodeID, f PairFunc) {
	for _, v := range dsts {
		evalPair(acc, u, v, f)
		if acc.err != nil {
			return
		}
	}
}

func evalPair(acc *rowAcc, u, v graph.NodeID, f PairFunc) {
	num, den, hops, err := f(u, v)
	if err != nil {
		acc.err = err
		return
	}
	if den <= 0 {
		acc.err = fmt.Errorf("evaluate: non-positive denominator %d for pair %d->%d", den, u, v)
		return
	}
	s := float64(num) / float64(den)
	acc.pairs++
	acc.totalHops += int64(hops)
	if hops > acc.maxHops {
		acc.maxHops = hops
	}
	if s > acc.max {
		acc.max = s
		acc.worstV = v
	}
	acc.hist.add(s)
	acc.addNum(den, int64(num))
}

// samplePlan draws opt.Sample ordered pairs without replacement and
// groups them into per-source destination lists, sorted so each row is
// evaluated in a fixed order. It returns nil in exhaustive mode — which
// includes a sample budget covering every pair, so one harness-wide
// -sample value evaluates small graphs exhaustively instead of failing
// on them. The plan depends only on (n, opt.Seed, opt.Sample).
func samplePlan(n int, opt Options) ([][]graph.NodeID, error) {
	if opt.Sample <= 0 {
		return nil, nil
	}
	total := n * (n - 1)
	if opt.Sample >= total {
		return nil, nil
	}
	r := xrand.New(opt.Seed)
	idxs := r.Sample(total, opt.Sample)
	// Exact-size rows carved from one buffer (no append growth), sorted
	// with the radix-friendly slices.Sort — same plan as the historical
	// append+sort.Slice build, built with O(1) large allocations.
	counts := make([]int32, n)
	for _, idx := range idxs {
		counts[idx/(n-1)]++
	}
	buf := make([]graph.NodeID, 0, len(idxs))
	plan := make([][]graph.NodeID, n)
	for u := range plan {
		start := len(buf)
		end := start + int(counts[u])
		plan[u] = buf[start:start:end]
		buf = buf[:end]
	}
	for _, idx := range idxs {
		u := idx / (n - 1)
		v := idx % (n - 1)
		if v >= u {
			v++
		}
		plan[u] = append(plan[u], graph.NodeID(v))
	}
	for u := range plan {
		slices.Sort(plan[u])
	}
	return plan, nil
}

// Stretch measures the stretch factor s(R, G) of routing function r on g
// over the ordered pair space. Distances come from Options.Source(g,
// apsp): pass a precomputed dense table, or nil apsp with
// Options.Distances / Options.DistMode selecting the streaming backend.
// Every backend and worker count yields the bit-identical report. The
// error is the first failing pair in row-major order, so a nil error
// also certifies universality: r delivers every ordered pair.
func Stretch(g *graph.Graph, r routing.Function, apsp *shortest.APSP, opt Options) (*Report, error) {
	g.Freeze() // serial point: workers only read the CSR arcs after this
	src, err := opt.Source(g, apsp)
	if err != nil {
		return nil, err
	}
	return stretchPairs(g, r, src, nil, opt)
}

// WeightedStretch measures cost stretch under arc weights w: the cost of
// the routing path (sum of arc weights) over the weighted distance. apsp
// must be the weighted distance table for w, or nil to resolve a backend
// via Options.SourceFor: dense builds the weighted table with the run's
// worker budget, stream recomputes rows by per-reader Dijkstra under w
// with the same O(workers·n) residency contract as the hop metric — full
// -distmode parity. Every backend and worker count yields the
// bit-identical report.
func WeightedStretch(g *graph.Graph, r routing.Function, w shortest.Weights, apsp *shortest.APSP, opt Options) (*Report, error) {
	g.Freeze()
	// Every backend the resolver BUILDS validates w itself; when the
	// caller supplies the rows (explicit Distances, or a dense table in
	// dense mode) nothing downstream would, and the cost numerator
	// indexes w inside pool workers — validate here so malformed weights
	// are an error, never a worker panic.
	if opt.Distances != nil || (apsp != nil && opt.DistMode == DistDense) {
		if err := w.Validate(g); err != nil {
			return nil, err
		}
	}
	src, err := opt.SourceFor(g, w, apsp)
	if err != nil {
		return nil, err
	}
	return stretchPairs(g, r, src, w, opt)
}

// stretchPairs is the one pair-evaluation path under both metrics: route
// each ordered pair, read the exact distance from the resolved backend,
// and fold through the deterministic engine. The metric only changes the
// numerator (hop count vs summed arc cost) and the rows behind the
// reader (BFS vs Dijkstra); the sharding, accumulators and merge are
// shared, so the two metrics cannot drift apart in determinism behavior.
func stretchPairs(g *graph.Graph, r routing.Function, src shortest.DistanceSource, w shortest.Weights, opt Options) (*Report, error) {
	newF := func() PairFunc {
		rd := src.NewReader()
		if w == nil {
			return func(u, v graph.NodeID) (int32, int32, int, error) {
				l, err := routing.RouteLen(g, r, u, v, opt.MaxHops)
				if err != nil {
					return 0, 0, 0, err
				}
				d := rd.Row(u)[v]
				if d == shortest.Unreachable {
					return 0, 0, 0, fmt.Errorf("routing: graph disconnected at pair %d->%d", u, v)
				}
				return int32(l), d, l, nil
			}
		}
		return func(u, v graph.NodeID) (int32, int32, int, error) {
			var cost int64 // int32 arc weights on a long route can exceed int32
			l := -1
			err := routing.RouteVisit(g, r, u, v, opt.MaxHops, func(h routing.Hop) {
				l++
				if h.Port != graph.NoPort {
					cost += int64(w[h.Node][h.Port-1])
				}
			})
			if err != nil {
				return 0, 0, 0, err
			}
			if cost > math.MaxInt32 {
				return 0, 0, 0, fmt.Errorf("evaluate: path cost %d for pair %d->%d overflows int32", cost, u, v)
			}
			d := rd.Row(u)[v]
			if d == shortest.Unreachable {
				return 0, 0, 0, fmt.Errorf("routing: pair %d->%d unreachable", u, v)
			}
			return int32(cost), d, l, nil
		}
	}
	return pairsFrom(g.Order(), newF, opt)
}

// MemoryReport summarizes the router-resident state of a scheme under the
// fixed coding strategy: the paper's MEM_local (max) and MEM_global (sum).
type MemoryReport struct {
	LocalBits  int     // MEM_local(G, R) = max_x MEM(G,R,x)
	GlobalBits int     // MEM_global(G, R) = sum_x MEM(G,R,x)
	MeanBits   float64 // average per router
	ArgMax     graph.NodeID
	PerNode    []int
}

// Memory meters LocalBits for every router with a worker pool. The
// report does not depend on the worker count: the per-router values are
// integers and the fold runs serially in router order. Sampling does not
// apply: MEM_local is a maximum over routers and must see every one.
func Memory(g *graph.Graph, s routing.LocalCoder, opt Options) MemoryReport {
	n := g.Order()
	rep := MemoryReport{PerNode: make([]int, n)}
	if n == 0 {
		return rep
	}
	workers := opt.workers(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := w; x < n; x += workers {
				rep.PerNode[x] = s.LocalBits(graph.NodeID(x))
			}
		}(w)
	}
	wg.Wait()
	for x, b := range rep.PerNode {
		rep.GlobalBits += b
		if b > rep.LocalBits {
			rep.LocalBits = b
			rep.ArgMax = graph.NodeID(x)
		}
	}
	rep.MeanBits = float64(rep.GlobalBits) / float64(n)
	return rep
}
