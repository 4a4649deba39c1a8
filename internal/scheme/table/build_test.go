package table

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/coding"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// referenceGraphs returns one small instance of every gen.ByName family
// plus, where a connectivity-preserving plan exists, a faulted copy with
// port holes — the graphs the reference checks sweep.
func referenceGraphs(t *testing.T, n int) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for i, fam := range gen.FamilyNames {
		g, err := gen.ByName(fam, n, xrand.New(uint64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		out[fam] = g
		plan, err := faults.NewPlan(g, faults.Options{Mode: faults.KillEdges, Count: 3, Seed: uint64(7 + i), KeepConnected: true})
		if err != nil {
			continue // a tree has no removable edge
		}
		h := g.Clone()
		plan.Apply(h)
		out[fam+"/faulted"] = h
	}
	return out
}

// firstArcs returns the ports p of u that begin some shortest path from
// u to v, read off the d(·,v) row: Neighbor(u,p) is one step closer to v.
// It is the independent reference the row kernel is checked against.
func firstArcs(g *graph.Graph, a *shortest.APSP, u, v graph.NodeID) []graph.Port {
	var out []graph.Port
	rowV := a.Row(v)
	for i, w := range g.Arcs(u) {
		if w >= 0 && rowV[w]+1 == rowV[u] {
			out = append(out, graph.Port(i+1))
		}
	}
	return out
}

// weightedFirstArcs is firstArcs under arc weights w: the ports of u
// that begin some minimum-cost path toward v, tested in int64 so costs
// near MaxInt32 cannot wrap.
func weightedFirstArcs(g *graph.Graph, a *shortest.APSP, w shortest.Weights, u, v graph.NodeID) []graph.Port {
	var out []graph.Port
	duv := int64(a.Dist(u, v))
	for i, x := range g.Arcs(u) {
		if x >= 0 {
			if dx := a.Dist(x, v); dx != shortest.Unreachable && int64(dx)+int64(w[u][i]) == duv {
				out = append(out, graph.Port(i+1))
			}
		}
	}
	return out
}

// referenceRow derives router x's row from the first-arc sets alone:
// MinPort takes the lowest port of firstArcs, RunGreedy keeps the
// previous destination's port while it stays in the set.
func referenceRow(g *graph.Graph, apsp *shortest.APSP, x graph.NodeID, pol Policy) []graph.Port {
	row := make([]graph.Port, g.Order())
	prev := graph.NoPort
	for v := range row {
		if graph.NodeID(v) == x {
			continue
		}
		arcs := firstArcs(g, apsp, x, graph.NodeID(v))
		low := arcs[0]
		keep := false
		for _, p := range arcs {
			low = min(low, p)
			keep = keep || p == prev
		}
		row[v] = low
		if pol == RunGreedy && keep {
			row[v] = prev
		}
		prev = row[v]
	}
	return row
}

// TestNewMatchesFirstArcsReference pins the row-major build to an
// independent derivation from firstArcs over every family,
// both policies, intact and faulted.
func TestNewMatchesFirstArcsReference(t *testing.T) {
	for name, g := range referenceGraphs(t, 100) {
		apsp := shortest.NewAPSPParallel(g, 0)
		for _, pol := range []Policy{MinPort, RunGreedy} {
			s, err := New(g, apsp, pol)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, pol, err)
			}
			for x := 0; x < g.Order(); x++ {
				want := referenceRow(g, apsp, graph.NodeID(x), pol)
				if got := rowOf(s, graph.NodeID(x)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%d: row %d = %v, want %v", name, pol, x, got, want)
				}
				if s.LocalBits(graph.NodeID(x)) != encodedRowBits(want, graph.NodeID(x), g.Degree(graph.NodeID(x))) {
					t.Fatalf("%s/%d: bits of row %d disagree with its code", name, pol, x)
				}
			}
		}
	}
}

// TestNewWeightedMatchesFirstArcsReference is the weighted analogue:
// MinPort entry (x,v) is the lowest port of weightedFirstArcs.
func TestNewWeightedMatchesFirstArcsReference(t *testing.T) {
	for i, fam := range gen.FamilyNames {
		g, err := gen.ByName(fam, 40, xrand.New(uint64(60+i)))
		if err != nil {
			t.Fatal(err)
		}
		w := shortest.RandomWeights(g, 9, xrand.New(uint64(80+i)))
		apsp, err := shortest.NewWeightedAPSPParallel(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWeighted(g, w, apsp, MinPort)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for x := 0; x < g.Order(); x++ {
			for v := 0; v < g.Order(); v++ {
				if x == v {
					continue
				}
				arcs := weightedFirstArcs(g, apsp, w, graph.NodeID(x), graph.NodeID(v))
				if got := entry(s, graph.NodeID(x), graph.NodeID(v)); got != arcs[0] {
					t.Fatalf("%s: entry (%d,%d) = %d, want lowest of %v", fam, x, v, got, arcs)
				}
			}
		}
	}
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestNewWorkerCountInvariant pins the fan-out: the scheme built on one
// worker and on four is the same, row code for row code, for both
// policies on an intact and a faulted graph.
func TestNewWorkerCountInvariant(t *testing.T) {
	g, err := gen.ByName("random", 300, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	plan, err := faults.NewPlan(h, faults.Options{Mode: faults.KillEdges, Count: 6, Seed: 11, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	plan.Apply(h)
	for name, gr := range map[string]*graph.Graph{"intact": g, "faulted": h} {
		apsp := shortest.NewAPSPParallel(gr, 0)
		for _, pol := range []Policy{MinPort, RunGreedy} {
			var one, four *Scheme
			withProcs(1, func() { one, err = New(gr, apsp, pol) })
			if err != nil {
				t.Fatal(err)
			}
			withProcs(4, func() { four, err = New(gr, apsp, pol) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one.stripes, four.stripes) {
				t.Fatalf("%s/%d: GOMAXPROCS 1 and 4 built different schemes", name, pol)
			}
		}
	}
}

// bridged joins two seeded random graphs on [0,half) and [half,2half)
// by the single edge {0, half}. Two such graphs that share the first
// half agree on every first arc of a router in it (distances through
// the bridge differ by the same constant at every neighbour), so a table
// of one used for the other fails only at routers of the second half.
func bridged(half int, seedA, seedB uint64) *graph.Graph {
	g := graph.New(2 * half)
	for k, seed := range []uint64{seedA, seedB} {
		part := gen.RandomConnected(half, 0.05, xrand.New(seed))
		for _, e := range part.Edges() {
			g.AddEdge(e[0]+graph.NodeID(k*half), e[1]+graph.NodeID(k*half))
		}
	}
	g.AddEdge(0, graph.NodeID(half))
	return g
}

// TestNewInconsistentAPSPLowestRouterError feeds New the table of a
// different graph of the same order. Several claims fail; whatever the
// worker count, the error names the lowest failing router, at its
// lowest failing destination — the pair an independent firstArcs scan
// finds first.
func TestNewInconsistentAPSPLowestRouterError(t *testing.T) {
	const half = 2 * lazyStripe
	g := bridged(half, 1, 2)
	wrong := shortest.NewAPSPParallel(bridged(half, 1, 3), 0)
	want := ""
	lowest, failing := -1, 0
	for x := 0; x < g.Order(); x++ {
		for v := 0; v < g.Order(); v++ {
			if x != v && len(firstArcs(g, wrong, graph.NodeID(x), graph.NodeID(v))) == 0 {
				if want == "" {
					want = fmt.Sprintf("table: no shortest first arc %d->%d", x, v)
					lowest = x
				}
				failing++
				break
			}
		}
	}
	if lowest < lazyStripe || failing < 2 {
		t.Fatalf("fixture too weak: lowest failing router %d, %d failing routers", lowest, failing)
	}
	for _, pol := range []Policy{MinPort, RunGreedy} {
		for _, procs := range []int{1, 4} {
			var s *Scheme
			var err error
			withProcs(procs, func() { s, err = New(g, wrong, pol) })
			if s != nil || err == nil || err.Error() != want {
				t.Fatalf("policy %d, GOMAXPROCS %d: scheme %v, error %v, want %q", pol, procs, s != nil, err, want)
			}
		}
	}
}

// TestNewRejectsOrderMismatch checks that a table of another order is an
// error, not an index panic.
func TestNewRejectsOrderMismatch(t *testing.T) {
	if _, err := New(gen.Cycle(8), shortest.NewAPSPParallel(gen.Cycle(9), 0), MinPort); err == nil {
		t.Fatal("APSP of order 9 accepted for an 8-vertex graph")
	}
}

// pickOracle is the per-destination build the port-outer row kernel
// (shortest.ArcRows.MinPortRow) replaced, kept as its oracle. For every
// router x and destination v it keeps the previous destination's port
// under RunGreedy while that port still begins a minimum-cost path,
// else scans the neighbour rows from port 1 up and stops at the first
// with d(w,v) + cost == d(x,v), summed in int64. Rows are priced by
// oracleRowBits, which prices the runs of every row.
func pickOracle(g *graph.Graph, apsp *shortest.APSP, w shortest.Weights, pol Policy) ([][]graph.Port, []int, error) {
	n := g.Order()
	ports, bits := make([][]graph.Port, n), make([]int, n)
	for x := 0; x < n; x++ {
		arcs := g.Arcs(graph.NodeID(x))
		dx := apsp.Row(graph.NodeID(x))
		ok := func(p graph.Port, v int) bool {
			nb := arcs[p-1]
			if nb == graph.DeadEnd {
				return false
			}
			c := int64(1)
			if w != nil {
				c = int64(w[x][p-1])
			}
			return int64(apsp.Row(nb)[v])+c == int64(dx[v])
		}
		row := make([]graph.Port, n)
		prev := graph.NoPort
		for v := 0; v < n; v++ {
			if v == x {
				continue
			}
			chosen := graph.NoPort
			if prev != graph.NoPort && ok(prev, v) {
				chosen = prev
			}
			for p := graph.Port(1); chosen == graph.NoPort && int(p) <= len(arcs); p++ {
				if ok(p, v) {
					chosen = p
				}
			}
			if chosen == graph.NoPort {
				metric := "shortest"
				if w != nil {
					metric = "minimum-cost"
				}
				return nil, nil, fmt.Errorf("table: no %s first arc %d->%d", metric, x, v)
			}
			row[v] = chosen
			if pol == RunGreedy {
				prev = chosen
			}
		}
		ports[x] = row
		bits[x] = oracleRowBits(row, graph.NodeID(x), len(arcs))
	}
	return ports, bits, nil
}

// oracleRowBits prices a row as encodedRowBits did before the run-count
// bound: the gamma cost of every run, against the raw cost.
func oracleRowBits(row []graph.Port, x graph.NodeID, deg int) int {
	wbits := coding.BitsFor(uint64(deg))
	raw := (len(row) - 1) * wbits
	rle, prev := 0, graph.NoPort
	runLen := 0
	for v, p := range row {
		if graph.NodeID(v) == x {
			continue
		}
		if p != prev && runLen > 0 {
			rle += coding.GammaLen(uint64(runLen)) + wbits
			runLen = 0
		}
		prev = p
		runLen++
	}
	if runLen > 0 {
		rle += coding.GammaLen(uint64(runLen)) + wbits
	}
	return 1 + min(rle, raw)
}

// oraclePayload writes the payload EncodePayload must produce for the
// given rows: per router, the RLE code where its bits undercut raw
// (writeRowCode's RLE branch, which the bulk writer left alone), else
// flag 0 and one WriteBits per destination.
func oraclePayload(g *graph.Graph, ports [][]graph.Port, bits []int) *coding.BitWriter {
	w := coding.NewBitWriter()
	n := g.Order()
	for x, row := range ports {
		deg := g.Degree(graph.NodeID(x))
		wbits := coding.BitsFor(uint64(deg))
		if bits[x]-1 < (n-1)*wbits {
			writeRowCode(w, row, graph.NodeID(x), deg, bits[x])
			continue
		}
		w.WriteBit(0)
		for v, p := range row {
			if v != x {
				w.WriteBits(uint64(p-1), wbits)
			}
		}
	}
	return w
}

// killFraction removes about frac of g's edges in a copy, keeping it
// connected, as the root package's killPlan does.
func killFraction(t *testing.T, g *graph.Graph, frac float64, seed uint64) *graph.Graph {
	t.Helper()
	plan := killPlan(g, frac, seed)
	if plan == nil {
		return nil
	}
	h := g.Clone()
	plan.Apply(h)
	return h
}

// killPlan draws the connectivity-preserving plan killFraction applies,
// or nil when every edge is a bridge.
func killPlan(g *graph.Graph, frac float64, seed uint64) *faults.Plan {
	for k := max(1, int(frac*float64(g.Size()))); k >= 1; k-- {
		plan, err := faults.NewPlan(g, faults.Options{Mode: faults.KillEdges, Count: k, Seed: seed, KeepConnected: true})
		if err == nil {
			return plan
		}
	}
	return nil // a tree has no removable edge
}

// TestRowKernelMatchesPickOracle pins the port-outer row kernel, the
// in-order RunGreedy pass, the run-bounded pricing and the bulk raw-row
// writer to pickOracle: ports, bits and EncodePayload bytes over every
// family at n=64 and 300, both policies, the hop metric and weights,
// plain and faulted; and the error text on an all-pairs table of
// another graph, which admits no first arc for some pair.
func TestRowKernelMatchesPickOracle(t *testing.T) {
	check := func(name string, g *graph.Graph, apsp *shortest.APSP, w shortest.Weights, pol Policy) {
		t.Helper()
		wantPorts, wantBits, wantErr := pickOracle(g, apsp, w, pol)
		var s *Scheme
		var err error
		if w == nil {
			s, err = New(g, apsp, pol)
		} else {
			s, err = NewWeighted(g, w, apsp, pol)
		}
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s/%d: error %v, oracle %v", name, pol, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(portRows(s), wantPorts) {
			t.Fatalf("%s/%d: ports differ from the oracle", name, pol)
		}
		if bits := rowBits(s); !slices.Equal(bits, wantBits) {
			t.Fatalf("%s/%d: bits %v, oracle %v", name, pol, bits, wantBits)
		}
		got := coding.NewBitWriter()
		s.EncodePayload(got)
		want := oraclePayload(g, wantPorts, wantBits)
		if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s/%d: payload of %d bits differs from the oracle's %d", name, pol, got.Len(), want.Len())
		}
	}
	pols := []Policy{MinPort, RunGreedy}
	for _, n := range []int{64, 300} {
		for i, fam := range gen.FamilyNames {
			g, err := gen.ByName(fam, n, xrand.New(uint64(100+i)))
			if err != nil {
				t.Fatal(err)
			}
			graphs := map[string]*graph.Graph{fmt.Sprintf("%s/%d", fam, n): g}
			if h := killFraction(t, g, 0.08, uint64(0x1a5d+i)); h != nil {
				graphs[fmt.Sprintf("%s/%d/faulted", fam, n)] = h
			}
			for name, gr := range graphs {
				apsp := shortest.NewAPSPParallel(gr, 0)
				w := shortest.RandomWeights(gr, 9, xrand.New(uint64(200+i)))
				wapsp, err := shortest.NewWeightedAPSPParallel(gr, w, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, pol := range pols {
					check(name, gr, apsp, nil, pol)
					check(name+"/weighted", gr, wapsp, w, pol)
				}
			}
		}
	}
	// Tables of other graphs (or other weights) of the same order.
	const half = 128
	g := bridged(half, 1, 2)
	wrong := shortest.NewAPSPParallel(bridged(half, 1, 3), 0)
	w := shortest.RandomWeights(g, 9, xrand.New(9))
	wrongW, err := shortest.NewWeightedAPSPParallel(g, shortest.RandomWeights(g, 9, xrand.New(10)), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range pols {
		_, _, errHop := pickOracle(g, wrong, nil, pol)
		_, _, errW := pickOracle(g, wrongW, w, pol)
		if errHop == nil || errW == nil {
			t.Fatalf("fixture too weak: oracle errors %v and %v", errHop, errW)
		}
		check("tampered", g, wrong, nil, pol)
		check("tampered/weighted", g, wrongW, w, pol)
	}
}

// TestRawRowBoundAtTies pins the run bound pricedRowBits applies before
// pricing a row, runs*(1+w) + 2*r2 with r2 the runs of length two or
// more: it never exceeds the row's exact RLE cost, so a row whose RLE
// code ties its raw code stays raw and one a bit cheaper goes RLE, with
// x skipped inside a run or at the end. Each row's canonical code must
// carry the branch chosen and decode, and its other spelling must be
// rejected. A seeded sweep then checks the bound and encodedRowBits
// against oracleRowBits on random run-structured rows.
func TestRawRowBoundAtTies(t *testing.T) {
	// bound returns the run bound of row and its exact RLE cost.
	bound := func(row []graph.Port, x graph.NodeID, deg int) (int, int) {
		w := coding.BitsFor(uint64(deg))
		var lens []int
		prev := graph.NoPort
		for v, p := range row {
			if graph.NodeID(v) == x {
				continue
			}
			if p != prev {
				lens = append(lens, 0)
			}
			lens[len(lens)-1]++
			prev = p
		}
		b, rle := 0, 0
		for _, l := range lens {
			b += 1 + w
			if l >= 2 {
				b += 2
			}
			rle += coding.GammaLen(uint64(l)) + w
		}
		return b, rle
	}
	// Degree 2, so w = 1 and raw = n-1. A run of 7 costs gamma(7) = 5
	// bits plus a port bit; a run of 1 costs 2 bits.
	rows := []struct {
		name string
		row  []graph.Port
		x    graph.NodeID
		rle  bool // the canonical code is RLE: rle < raw
	}{
		{"rle-equals-raw/x-last", []graph.Port{1, 1, 1, 1, 1, 1, 1, 2, 0}, 8, false},
		{"rle-equals-raw/x-inside-run", []graph.Port{1, 1, 1, 0, 1, 1, 1, 1, 2}, 3, false},
		{"rle-one-below-raw/x-last", []graph.Port{2, 2, 2, 2, 2, 2, 2, 0}, 7, true},
		{"rle-one-below-raw/x-inside-run", []graph.Port{2, 2, 0, 2, 2, 2, 2, 2}, 2, true},
	}
	const deg = 2
	for _, tc := range rows {
		raw := len(tc.row) - 1
		exact := oracleRowBits(tc.row, tc.x, deg) - 1
		if tc.rle && exact != raw-1 || !tc.rle && exact != raw {
			t.Fatalf("%s: row costs %d bits, raw %d: not the intended tie", tc.name, exact, raw)
		}
		if b, rle := bound(tc.row, tc.x, deg); b > rle || b >= raw {
			t.Fatalf("%s: bound %d against RLE cost %d, raw %d: the tie must be priced", tc.name, b, rle, raw)
		}
		if got := encodedRowBits(tc.row, tc.x, deg); got-1 != exact {
			t.Fatalf("%s: encodedRowBits %d, want %d", tc.name, got, exact+1)
		}
		w := coding.NewBitWriter()
		AppendPortRowCode(w, tc.row, tc.x, deg)
		code := w.Bytes()
		if rle := code[0]>>7 == 1; rle != tc.rle {
			t.Fatalf("%s: canonical code has RLE flag %v, want %v", tc.name, rle, tc.rle)
		}
		got, err := DecodeRowFrom(coding.NewBitReader(code, w.Len()), len(tc.row), tc.x, deg)
		if err != nil || !slices.Equal(got, tc.row) {
			t.Fatalf("%s: canonical code decodes to %v, %v", tc.name, got, err)
		}
		other := spellRaw(tc.row, tc.x, deg)
		if !tc.rle {
			other = spellRuns([][2]int{{7, 1}, {1, 2}}, deg)
		}
		if _, err := DecodeRowFrom(coding.NewBitReader(other, len(other)*8), len(tc.row), tc.x, deg); err == nil {
			t.Fatalf("%s: the non-canonical spelling %x decodes", tc.name, other)
		}
	}

	rng := xrand.New(17)
	for i := 0; i < 3000; i++ {
		n, deg := 2+rng.Intn(60), 1+rng.Intn(12)
		x := graph.NodeID(rng.Intn(n))
		row := make([]graph.Port, n)
		p := graph.Port(1 + rng.Intn(deg))
		for v := range row {
			if rng.Intn(3) == 0 {
				p = graph.Port(1 + rng.Intn(deg))
			}
			if graph.NodeID(v) != x {
				row[v] = p
			}
		}
		want := oracleRowBits(row, x, deg)
		if got := encodedRowBits(row, x, deg); got != want {
			t.Fatalf("row %v x=%d deg=%d: encodedRowBits %d, oracle %d", row, x, deg, got, want)
		}
		if b, rle := bound(row, x, deg); b > rle {
			t.Fatalf("row %v x=%d deg=%d: bound %d exceeds the RLE cost %d", row, x, deg, b, rle)
		}
	}
}

// TestSchemeMatchesPortOracle is the conformance test of the code-backed
// heap scheme: every (x, dst) that Port answers must equal the port-row
// oracle (pickOracle's rows) for the scheme from New and NewWeighted,
// from DecodePayload of its payload, from WithRows patching every other
// router of the other policy's scheme, and, on the hop metric, from
// Repair of the intact graph's scheme after the faults — over every
// family at n=64 and 300, both policies, plain and faulted. The cases
// must between them hold degree-1 routers (w = 0) and RLE routers.
func TestSchemeMatchesPortOracle(t *testing.T) {
	var narrow, rle int
	check := func(name string, s *Scheme, want [][]graph.Port) {
		t.Helper()
		for x := range want {
			for dst := range want {
				if got := entry(s, graph.NodeID(x), graph.NodeID(dst)); got != want[x][dst] {
					t.Fatalf("%s: Port(%d -> %d) = %d, oracle %d", name, x, dst, got, want[x][dst])
				}
			}
			switch s.stripes[x/lazyStripe].wid[x%lazyStripe] {
			case 0:
				narrow++
			case rleWidth:
				rle++
			}
		}
	}
	pols := []Policy{MinPort, RunGreedy}
	for _, n := range []int{64, 300} {
		for i, fam := range gen.FamilyNames {
			g, err := gen.ByName(fam, n, xrand.New(uint64(300+i)))
			if err != nil {
				t.Fatal(err)
			}
			plan := killPlan(g, 0.08, uint64(0x5eed+i))
			graphs := map[string]*graph.Graph{fmt.Sprintf("%s/%d", fam, n): g}
			if plan != nil {
				h := g.Clone()
				plan.Apply(h)
				graphs[fmt.Sprintf("%s/%d/faulted", fam, n)] = h
			}
			for name, gr := range graphs {
				apsp := shortest.NewAPSPParallel(gr, 0)
				w := shortest.RandomWeights(gr, 9, xrand.New(uint64(400+i)))
				wapsp, err := shortest.NewWeightedAPSPParallel(gr, w, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, weighted := range []bool{false, true} {
					oracle := map[Policy][][]graph.Port{}
					built := map[Policy]*Scheme{}
					for _, pol := range pols {
						var s *Scheme
						if weighted {
							oracle[pol], _, err = pickOracle(gr, wapsp, w, pol)
							if err == nil {
								s, err = NewWeighted(gr, w, wapsp, pol)
							}
						} else {
							oracle[pol], _, err = pickOracle(gr, apsp, nil, pol)
							if err == nil {
								s, err = New(gr, apsp, pol)
							}
						}
						if err != nil {
							t.Fatalf("%s/%d: %v", name, pol, err)
						}
						built[pol] = s
					}
					for _, pol := range pols {
						tag := fmt.Sprintf("%s/weighted=%v/%d", name, weighted, pol)
						s, want := built[pol], oracle[pol]
						check(tag+"/New", s, want)
						bw := coding.NewBitWriter()
						s.EncodePayload(bw)
						d, err := DecodePayload(coding.NewBitReader(bw.Bytes(), bw.Len()), gr)
						if err != nil {
							t.Fatalf("%s: DecodePayload: %v", tag, err)
						}
						check(tag+"/DecodePayload", d, want)
						// Patch every other router of the other policy's scheme.
						other := built[1-pol]
						mixed := slices.Clone(oracle[1-pol])
						var routers []graph.NodeID
						var rows [][]graph.Port
						for x := 0; x < gr.Order(); x += 2 {
							routers = append(routers, graph.NodeID(x))
							rows = append(rows, slices.Clone(want[x]))
							mixed[x] = want[x]
						}
						p, err := other.WithRows(gr, routers, rows)
						if err != nil {
							t.Fatalf("%s: WithRows: %v", tag, err)
						}
						check(tag+"/WithRows", p, mixed)
						check(tag+"/WithRows-base", other, oracle[1-pol])
					}
				}
			}
			if plan == nil {
				continue
			}
			// Repair: built on the intact graph, then faulted in place.
			for _, pol := range pols {
				work := g.Clone()
				apsp := shortest.NewAPSPParallel(work, 0)
				s, err := New(work, apsp, pol)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range plan.Edges {
					work.RemoveEdge(e[0], e[1])
				}
				work.Freeze()
				dirty := faults.DirtyRoots(apsp, plan.Edges)
				apsp.RefreshRows(work, dirty)
				if _, err := s.Repair(apsp, dirty, pol); err != nil {
					t.Fatalf("%s/%d/%d: Repair: %v", fam, n, pol, err)
				}
				want, _, err := pickOracle(work, apsp, nil, pol)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/%d/%d/Repair", fam, n, pol), s, want)
			}
		}
	}
	if narrow == 0 || rle == 0 {
		t.Fatalf("cases hold %d degree-1 and %d RLE routers; each must be > 0", narrow, rle)
	}
}
