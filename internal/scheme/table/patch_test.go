package table

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/coding"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// twinGraph returns a connected graph on n vertices in which each pair
// (u, v) is an edge whose endpoints have the same other neighbours:
// common[j] random vertices outside every pair, added after the edge,
// so port 1 of u leads to v. Removing {u, v} then changes d(u, v) from
// 1 to 2 and no other distance (a shortest path through the edge could
// skip u or v), so only the rows of u and v change.
func twinGraph(n int, pairs [][2]int, common []int, seed uint64) *graph.Graph {
	inPair := make([]bool, n)
	for _, p := range pairs {
		inPair[p[0]], inPair[p[1]] = true, true
	}
	var rest []graph.NodeID
	for v := 0; v < n; v++ {
		if !inPair[v] {
			rest = append(rest, graph.NodeID(v))
		}
	}
	rng := xrand.New(seed)
	g := graph.New(n)
	for _, e := range gen.RandomConnected(len(rest), 8.0/float64(len(rest)), rng).Edges() {
		g.AddEdge(rest[e[0]], rest[e[1]])
	}
	for j, p := range pairs {
		u, v := graph.NodeID(p[0]), graph.NodeID(p[1])
		g.AddEdge(u, v)
		for _, i := range rng.Perm(len(rest))[:common[j]] {
			g.AddEdge(u, rest[i])
			g.AddEdge(v, rest[i])
		}
	}
	return g
}

// sameScheme fails unless got routes, meters and encodes exactly as
// want: every port row, every LocalBits and the EncodePayload bytes.
func sameScheme(t *testing.T, tag string, got, want *Scheme) {
	t.Helper()
	if !reflect.DeepEqual(portRows(got), portRows(want)) {
		t.Fatalf("%s: ports differ", tag)
	}
	if !slices.Equal(rowBits(got), rowBits(want)) {
		t.Fatalf("%s: LocalBits differ", tag)
	}
	gw, ww := coding.NewBitWriter(), coding.NewBitWriter()
	got.EncodePayload(gw)
	want.EncodePayload(ww)
	if gw.Len() != ww.Len() || !bytes.Equal(gw.Bytes(), ww.Bytes()) {
		t.Fatalf("%s: payload of %d bits differs from the %d-bit one wanted", tag, gw.Len(), ww.Len())
	}
}

// checkShared fails unless exactly the stripes holding a router of
// touched were replaced in got; every other stripe must be base's, by
// pointer.
func checkShared(t *testing.T, tag string, got, base []*stripe, touched []graph.NodeID) {
	t.Helper()
	for si := range base {
		hit := slices.ContainsFunc(touched, func(x graph.NodeID) bool { return int(x)/lazyStripe == si })
		if shared := got[si] == base[si]; shared == hit {
			t.Fatalf("%s: stripe %d shared %v, patched %v", tag, si, shared, hit)
		}
	}
}

// TestPatchMatchesFreshBuild pins WithRows and Repair to the from-scratch
// producers on a graph of three full stripes and a partial one. Twin
// edges in the first, second and last stripe fail, so only their
// endpoints' rows change: WithRows of those rows onto the base, and
// Repair of the base, must give the ports, LocalBits and EncodePayload
// bytes of New on the faulted graph, under both policies, and must
// share the untouched third stripe with the base by pointer. A second
// patch flips one raw router to RLE and one RLE router to raw, so the
// payload offsets after them shift, and is checked against the payload
// the row coder writes for the patched rows.
func TestPatchMatchesFreshBuild(t *testing.T) {
	n := 3*lazyStripe + 40
	pairs := [][2]int{{5, 9}, {lazyStripe + 17, lazyStripe + 200}, {3*lazyStripe + 1, 3*lazyStripe + 30}}
	g := twinGraph(n, pairs, []int{3, 2, 1}, 41)
	h := g.Clone()
	var edges [][2]graph.NodeID
	var twins []graph.NodeID
	for _, p := range pairs {
		u, v := graph.NodeID(p[0]), graph.NodeID(p[1])
		h.RemoveEdge(u, v)
		edges = append(edges, [2]graph.NodeID{u, v})
		twins = append(twins, u, v)
	}
	slices.Sort(twins)
	h.Freeze()
	for _, pol := range []Policy{MinPort, RunGreedy} {
		tag := fmt.Sprintf("policy=%d", pol)
		work := g.Clone()
		apsp := shortest.NewAPSPParallel(work, 0)
		base, err := New(work, apsp, pol)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(h, shortest.NewAPSPParallel(h, 0), pol)
		if err != nil {
			t.Fatal(err)
		}
		var routers []graph.NodeID
		var rows [][]graph.Port
		for x := range n {
			if want := rowOf(fresh, graph.NodeID(x)); !slices.Equal(rowOf(base, graph.NodeID(x)), want) {
				routers = append(routers, graph.NodeID(x))
				rows = append(rows, want)
			}
		}
		if !slices.Equal(routers, twins) {
			t.Fatalf("%s: rows of %v change, want the twins %v", tag, routers, twins)
		}
		p, err := base.WithRows(h, routers, rows)
		if err != nil {
			t.Fatal(err)
		}
		sameScheme(t, tag+"/WithRows", p, fresh)
		checkShared(t, tag+"/WithRows", p.stripes, base.stripes, routers)

		kept := slices.Clone(base.stripes)
		for _, e := range edges {
			work.RemoveEdge(e[0], e[1])
		}
		dirty := faults.DirtyRoots(apsp, edges)
		apsp.RefreshRows(work, dirty)
		changed, err := base.Repair(apsp, dirty, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(changed, routers) {
			t.Fatalf("%s: Repair changed %v, want %v", tag, changed, routers)
		}
		sameScheme(t, tag+"/Repair", base, fresh)
		checkShared(t, tag+"/Repair", base.stripes, kept, routers)
	}

	// The flips: a raw router of the first stripe gets a one-port row,
	// the degree-2 twin of the last stripe (RLE: every destination but
	// its twin leaves through port 2) an alternating one.
	base, err := New(g, nil, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	wid := func(s *Scheme, x graph.NodeID) uint8 { return s.stripes[int(x)/lazyStripe].wid[int(x)%lazyStripe] }
	raw, rle := graph.NodeID(0), graph.NodeID(pairs[2][0])
	for wid(base, raw) == rleWidth || g.Degree(raw) < 2 || slices.Contains(twins, raw) {
		raw++
	}
	if wid(base, rle) != rleWidth {
		t.Fatalf("twin %d of degree %d is raw: fixture too weak", rle, g.Degree(rle))
	}
	want := portRows(base)
	for v := range n {
		if graph.NodeID(v) != raw {
			want[raw][v] = 1
		}
		if graph.NodeID(v) != rle {
			want[rle][v] = graph.Port(1 + v%2)
		}
	}
	flipped := []graph.NodeID{raw, rle}
	p, err := base.WithRows(g, flipped, [][]graph.Port{slices.Clone(want[raw]), slices.Clone(want[rle])})
	if err != nil {
		t.Fatal(err)
	}
	if wid(p, raw) != rleWidth || wid(p, rle) == rleWidth {
		t.Fatalf("routers %d and %d kept their codes' kinds", raw, rle)
	}
	bits := make([]int, n)
	for x := range n {
		bits[x] = encodedRowBits(want[x], graph.NodeID(x), g.Degree(graph.NodeID(x)))
	}
	if !reflect.DeepEqual(portRows(p), want) || !slices.Equal(rowBits(p), bits) {
		t.Fatal("flip: ports or LocalBits differ from the patched rows")
	}
	gw, ww := coding.NewBitWriter(), oraclePayload(g, want, bits)
	p.EncodePayload(gw)
	if gw.Len() != ww.Len() || !bytes.Equal(gw.Bytes(), ww.Bytes()) {
		t.Fatalf("flip: payload of %d bits differs from the row coder's %d", gw.Len(), ww.Len())
	}
	checkShared(t, "flip", p.stripes, base.stripes, flipped)
}
