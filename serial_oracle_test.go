// Serial oracle for the measurement engine: internal/evaluate shards the
// pair space across a worker pool and folds per-row accumulators, and
// the tests here pin it against the plainest possible loop — one
// Route per ordered pair in row-major order, distances from one scalar
// BFS (or Dijkstra) per row, no workers and no accumulators. Every
// exhaustive report must equal the oracle's field for field, the float
// Mean and the histogram included, at every worker count.
package repro

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/kcomplete"
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
