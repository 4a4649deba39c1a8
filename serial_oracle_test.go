// Serial oracle for the measurement engine: internal/evaluate shards the
// pair space across a worker pool and folds per-row accumulators, and
// the tests here pin it against the plainest possible loop — one
// Route per ordered pair in row-major order, distances from one scalar
// BFS (or Dijkstra) per row, no workers and no accumulators. Every
// exhaustive report must equal the oracle's field for field, the float
// Mean and the histogram included, at every worker count.
package repro

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// serialStretch is the reference for evaluate.Stretch (w == nil, hop
// count over BFS distance) and evaluate.WeightedStretch (path cost under
// w over Dijkstra distance). Its error is the first failing pair in
// row-major order, so a nil error also certifies that r delivers every
// ordered pair.
func serialStretch(g *graph.Graph, r routing.Function, w shortest.Weights) (evaluate.Report, error) {
	dist := bfsRows(g)
	if w != nil {
		dist = dijkstraRows(g, w)
	}
	var rep evaluate.Report
	numByDen := map[int32]int64{}
	for u := range g.Order() {
		for v := range g.Order() {
			if u == v {
				continue
			}
			hops, err := routing.Route(g, r, graph.NodeID(u), graph.NodeID(v), 0)
			if err != nil {
				return rep, err
			}
			l := routing.PathLen(hops)
			num := int64(l)
			if w != nil {
				num = 0
				for _, h := range hops {
					if h.Port != graph.NoPort {
						num += int64(w[h.Node][h.Port-1])
					}
				}
			}
			d := dist[u][v]
			if d == shortest.Unreachable {
				return rep, fmt.Errorf("pair %d->%d unreachable", u, v)
			}
			s := float64(num) / float64(d)
			numByDen[d] += num
			rep.Pairs++
			rep.TotalHops += int64(l)
			rep.MaxHops = max(rep.MaxHops, l)
			if s > rep.Max {
				rep.Max = s
				rep.WorstU, rep.WorstV = graph.NodeID(u), graph.NodeID(v)
			}
			rep.Hist.Buckets[min(max(int((s-1)*4), 0), evaluate.HistBuckets-1)]++
		}
	}
	rep.Mean = evaluate.MeanFromSums(numByDen, rep.Pairs)
	return rep, nil
}

// serialMemory is the reference for evaluate.Memory: LocalBits of every
// router, folded in router order.
func serialMemory(g *graph.Graph, s routing.LocalCoder) evaluate.MemoryReport {
	rep := evaluate.MemoryReport{PerNode: make([]int, g.Order())}
	for x := range rep.PerNode {
		b := s.LocalBits(graph.NodeID(x))
		rep.PerNode[x] = b
		rep.GlobalBits += b
		if b > rep.LocalBits {
			rep.LocalBits = b
			rep.ArgMax = graph.NodeID(x)
		}
	}
	if len(rep.PerNode) > 0 {
		rep.MeanBits = float64(rep.GlobalBits) / float64(len(rep.PerNode))
	}
	return rep
}

// serialDelivery is the reference for evaluate.Delivery: one Route per
// ordered pair of distinct live vertices in row-major order — only the
// pairs keep admits, when keep is non-nil — distances from one scalar
// BFS per row, and every outcome classified by its typed reason. A
// failure without one is an error, connected pair or not.
func serialDelivery(g *graph.Graph, r routing.Function, keep func(u, v int) bool) (evaluate.Outcome, error) {
	dist := bfsRows(g)
	var o evaluate.Outcome
	lenByDist := map[int32]int64{}
	for u := range g.Order() {
		for v := range g.Order() {
			if u == v || g.Removed(graph.NodeID(u)) || g.Removed(graph.NodeID(v)) || (keep != nil && !keep(u, v)) {
				continue
			}
			hops, err := routing.Route(g, r, graph.NodeID(u), graph.NodeID(v), 0)
			var re *routing.RouteError
			if err != nil && !errors.As(err, &re) {
				return o, fmt.Errorf("pair %d->%d: untyped failure: %w", u, v, err)
			}
			o.Pairs++
			d := dist[u][v]
			if d == shortest.Unreachable {
				o.Disconnected++
				if err != nil {
					o.DetectedDisconnect++
					o.Failures[re.Reason]++
				} else {
					o.FalseDeliver++
				}
				continue
			}
			o.Connected++
			if err != nil {
				o.Failures[re.Reason]++
				continue
			}
			l := routing.PathLen(hops)
			o.Delivered++
			lenByDist[d] += int64(l)
			o.MaxStretch = max(o.MaxStretch, float64(l)/float64(d))
		}
	}
	o.MeanStretch = evaluate.MeanFromSums(lenByDist, o.Delivered)
	return o, nil
}

// samplePairs is the pair set of evaluate's sample plan for (n, k,
// seed): the k indices xrand draws from the n(n-1) off-diagonal ordered
// pairs in row-major order. It returns nil (every pair) when k is 0 or
// covers them all, as the engine does.
func samplePairs(n, k int, seed uint64) func(u, v int) bool {
	if k <= 0 || k >= n*(n-1) {
		return nil
	}
	set := map[[2]int]bool{}
	for _, idx := range xrand.New(seed).Sample(n*(n-1), k) {
		u, v := idx/(n-1), idx%(n-1)
		if v >= u {
			v++
		}
		set[[2]int{u, v}] = true
	}
	return func(u, v int) bool { return set[[2]int{u, v}] }
}

// dijkstraRows is the serial weighted reference table: one Dijkstra per
// row.
func dijkstraRows(g *graph.Graph, w shortest.Weights) [][]int32 {
	rows := make([][]int32, g.Order())
	for u := range rows {
		rows[u] = shortest.Dijkstra(g, w, graph.NodeID(u))
	}
	return rows
}

// symmetricWeights gives every edge of g one cost drawn from cost, the
// same on both of its arcs, drawing in (vertex, port) order.
func symmetricWeights(g *graph.Graph, cost func() int32) shortest.Weights {
	w := shortest.UniformWeights(g)
	for u := range g.Order() {
		backs := g.BackPorts(graph.NodeID(u))
		for i, v := range g.Arcs(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				c := cost()
				w[u][i] = c
				w[v][backs[i]-1] = c
			}
		}
	}
	return w
}

// TestAdversarialCompleteBitIdentical covers kcomplete.Adversarial, which
// scrambles its graph's port labeling in place and therefore needs a
// dedicated instance.
func TestAdversarialCompleteBitIdentical(t *testing.T) {
	g := gen.Complete(16)
	ad, err := kcomplete.Scramble(g, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialStretch(g, ad, nil)
	if err != nil {
		t.Fatal(err)
	}
	apsp := shortest.NewAPSPParallel(g, 0)
	for _, workers := range []int{1, 4} {
		rep, err := evaluate.Stretch(g, ad, apsp, evaluate.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if *rep != want {
			t.Fatalf("workers=%d: report %+v, serial %+v", workers, *rep, want)
		}
	}
}

// TestExhaustiveBitIdenticalToSerial checks the headline determinism
// contract: for every scheme on grid, hypercube, tree and complete
// workloads, the exhaustive report equals the serial oracle field for
// field (including the float Mean) at every worker count, and so does
// the memory report.
func TestExhaustiveBitIdenticalToSerial(t *testing.T) {
	workloads := []confFamily{
		{name: "grid 5x5", g: gen.Grid2D(5, 5)},
		{name: "hypercube H4", g: gen.Hypercube(4), cubeDim: 4},
		{name: "tree(40)", g: gen.RandomTree(40, xrand.New(3)), isTree: true},
		{name: "K16", g: gen.Complete(16), isComplete: true},
	}
	for _, f := range workloads {
		apsp := shortest.NewAPSPParallel(f.g, 0)
		for _, cs := range confSchemes(t, f, apsp, 11) {
			s := cs.s
			want, err := serialStretch(f.g, s, nil)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", f.name, s.Name(), err)
			}
			for _, workers := range []int{1, 2, 7} {
				rep, err := evaluate.Stretch(f.g, s, apsp, evaluate.Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s: workers=%d: %v", f.name, s.Name(), workers, err)
				}
				if *rep != want {
					t.Fatalf("%s/%s: workers=%d: report %+v, serial %+v", f.name, s.Name(), workers, *rep, want)
				}
			}
			wantMem := serialMemory(f.g, s)
			gotMem := evaluate.Memory(f.g, s, evaluate.Options{Workers: 5})
			if !reflect.DeepEqual(gotMem, wantMem) {
				t.Fatalf("%s/%s: memory report %+v, serial %+v", f.name, s.Name(), gotMem, wantMem)
			}
		}
	}
}

// TestWeightedBitIdenticalToSerial checks the weighted engine against
// the serial oracle on a weighted torus.
func TestWeightedBitIdenticalToSerial(t *testing.T) {
	g := gen.Torus2D(5, 5)
	r := xrand.New(17)
	w := symmetricWeights(g, func() int32 { return int32(r.Intn(5) + 1) })
	s, err := table.NewWeighted(g, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialStretch(g, s, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rep, err := evaluate.WeightedStretch(g, s, w, nil, evaluate.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if *rep != want {
			t.Fatalf("workers=%d: report %+v, serial %+v", workers, *rep, want)
		}
	}
}

// TestWeightedLargeCosts pins the weighted path against the engine's
// dense denominator index: weighted path costs are NOT bounded by the
// diameter, so huge (valid, symmetric) arc weights must route through
// the accumulator's sparse fallback — same numbers as the serial
// oracle, no cost-sized allocations.
func TestWeightedLargeCosts(t *testing.T) {
	g := gen.Torus2D(4, 4)
	const big = int32(1) << 24
	r := xrand.New(23)
	w := symmetricWeights(g, func() int32 { return big + int32(r.Intn(1000)) })
	s, err := table.NewWeighted(g, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialStretch(g, s, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		rep, err := evaluate.WeightedStretch(g, s, w, nil, evaluate.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if *rep != want {
			t.Fatalf("workers=%d: report %+v, serial %+v", workers, *rep, want)
		}
	}
}

// TestDeliveryBitIdenticalToSerial pins evaluate.Delivery against
// serialDelivery whole-report on faulted graphs: every conformance
// family under 3 unconstrained edge kills and under 3 vertex kills,
// table and landmark schemes built before the fault, the dense and
// the streaming backend at workers 1, 3 and 8, exhaustive and sampled.
// Vertex kills pin the pair space to the live vertices; the tree family,
// where every edge is a bridge, pins the disconnected branch.
func TestDeliveryBitIdenticalToSerial(t *testing.T) {
	const sample, seed = 300, 7
	for _, f := range confFamilies() {
		for _, mode := range []faults.Mode{faults.KillEdges, faults.KillVertices} {
			g := f.g.Clone()
			apsp := shortest.NewAPSPParallel(g, 0)
			tb, err := table.New(g, apsp, table.MinPort)
			if err != nil {
				t.Fatalf("%s: tables: %v", f.name, err)
			}
			lm, err := landmark.NewStreamed(g, landmark.Options{Seed: 5}, 0)
			if err != nil {
				t.Fatalf("%s: landmark: %v", f.name, err)
			}
			plan, err := faults.NewPlan(g, faults.Options{Mode: mode, Count: 3, Seed: 0xdead})
			if err != nil {
				t.Fatalf("%s: %s plan: %v", f.name, mode, err)
			}
			plan.Apply(g)
			live := g.LiveOrder()
			for _, s := range []routing.Scheme{tb, lm} {
				name := fmt.Sprintf("%s/%s/%s", f.name, mode, s.Name())
				for _, base := range []evaluate.Options{{}, {Sample: sample, Seed: seed}} {
					want, err := serialDelivery(g, s, samplePairs(g.Order(), base.Sample, base.Seed))
					if err != nil {
						t.Fatalf("%s: serial: %v", name, err)
					}
					if base.Sample == 0 && want.Pairs != live*(live-1) {
						t.Fatalf("%s: %d pairs swept, want %d live ordered pairs", name, want.Pairs, live*(live-1))
					}
					if f.isTree && mode == faults.KillEdges && want.Disconnected == 0 {
						t.Fatalf("%s: edge kills on a tree disconnected nothing", name)
					}
					for _, dm := range []evaluate.DistMode{evaluate.DistDense, evaluate.DistStream} {
						for _, workers := range []int{1, 3, 8} {
							o := base
							o.DistMode, o.Workers = dm, workers
							got, err := evaluate.Delivery(g, s, nil, o)
							if err != nil {
								t.Fatalf("%s: %s workers=%d sample=%d: %v", name, dm, workers, o.Sample, err)
							}
							if got != want {
								t.Fatalf("%s: %s workers=%d sample=%d: outcome %+v, serial %+v", name, dm, workers, o.Sample, got, want)
							}
						}
					}
				}
			}
		}
	}
}
