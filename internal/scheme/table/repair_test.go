package table

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/coding"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// bitAt returns bit i of c, first bit highest: the bit-at-a-time oracle
// of window.
func bitAt(c []byte, i uint64) byte { return c[i>>3] >> (7 - i&7) & 1 }

// TestBitsEqualMatchesBitOracle compares bitsEqual with a bit-by-bit
// compare on spans at random bit offsets, of lengths around one and two
// 64-bit windows and random ones. Each slice ends exactly 8 bytes past
// its span's last byte, the stripe pad, so a window reading one byte
// too far panics; the bits around the spans are random, and half the
// trials flip one span bit of y, often its first or last.
func TestBitsEqualMatchesBitOracle(t *testing.T) {
	rng := xrand.New(59)
	random := func(size uint64) []byte {
		c := make([]byte, size)
		for i := range c {
			c[i] = byte(rng.Uint32())
		}
		return c
	}
	lens := []uint64{0, 1, 7, 8, 9, 55, 56, 57, 63, 64, 65, 127, 128, 129, 191, 192, 193}
	for trial := range 40000 {
		nbits := lens[trial%len(lens)]
		if trial%5 == 4 {
			nbits = uint64(rng.Intn(400))
		}
		p, q := uint64(rng.Intn(24)), uint64(rng.Intn(24))
		x, y := random((p+nbits+7)/8+8), random((q+nbits+7)/8+8)
		for k := range nbits {
			i := q + k
			y[i>>3] = y[i>>3]&^(0x80>>(i&7)) | bitAt(x, p+k)<<(7-i&7)
		}
		if nbits > 0 && rng.Intn(2) == 0 {
			k := [3]uint64{0, nbits - 1, uint64(rng.Intn(int(nbits)))}[rng.Intn(3)]
			y[(q+k)>>3] ^= 0x80 >> ((q + k) & 7)
		}
		want := true
		for k := range nbits {
			if bitAt(x, p+k) != bitAt(y, q+k) {
				want = false
				break
			}
		}
		if got := bitsEqual(x, p, y, q, nbits); got != want {
			t.Fatalf("bitsEqual(%d bits at %d and %d) = %v, want %v", nbits, p, q, got, want)
		}
	}
}

// lazyAt encodes s after skip filler bits and wraps the payload in a
// lazy scheme over g, so every stripe's first offset is moved by skip.
func lazyAt(g *graph.Graph, s *Scheme, skip int) *Scheme {
	w := coding.NewBitWriter()
	w.WriteBits(0b101, skip)
	rb, start := s.EncodePayload(w)
	offs := make([]uint64, g.Order()+1)
	offs[0] = uint64(start)
	for x := range rb {
		offs[x+1] = offs[x] + uint64(rb[x])
	}
	blob := w.Bytes()
	return NewLazy(g, offs, func() ([]byte, error) { return blob, nil })
}

// repairTally counts, over the changed routers of the repairs a test
// ran, those whose code kept its length and those whose code flipped
// between raw and RLE.
type repairTally struct{ sameLen, rawToRLE, rleToRaw int }

// isRLE reports whether router x of degree deg codes row run-length
// compressed.
func isRLE(row []graph.Port, x graph.NodeID, deg int) bool {
	return encodedRowBits(row, x, deg)-1 < (len(row)-1)*coding.BitsFor(uint64(deg))
}

// checkRepair removes edges from work, the graph base is bound to,
// refreshes apsp (base's build table) and repairs base under pol. before
// holds base's rows, read from a scheme with the same codes so that a
// lazy base stays unproven until Repair. The changed routers must be
// exactly those whose row differs from a fresh New's on the faulted
// graph, base must then equal that build, and exactly the stripes
// holding a changed router may be replaced.
func checkRepair(t *testing.T, tag string, base *Scheme, before [][]graph.Port, work *graph.Graph, apsp *shortest.APSP, edges [][2]graph.NodeID, pol Policy, tally *repairTally) {
	t.Helper()
	kept := slices.Clone(base.stripes)
	bits := rowBits(base)
	for _, e := range edges {
		work.RemoveEdge(e[0], e[1])
	}
	work.Freeze()
	dirty := faults.DirtyRoots(apsp, edges)
	apsp.RefreshRows(work, dirty)
	changed, err := base.Repair(apsp, dirty, pol)
	if err != nil {
		t.Fatalf("%s: Repair: %v", tag, err)
	}
	fresh, err := New(work, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	var want []graph.NodeID
	for x := range before {
		xi := graph.NodeID(x)
		row := rowOf(fresh, xi)
		if slices.Equal(before[x], row) {
			continue
		}
		want = append(want, xi)
		deg := work.Degree(xi)
		switch was, is := isRLE(before[x], xi, deg), isRLE(row, xi, deg); {
		case !was && is:
			tally.rawToRLE++
		case was && !is:
			tally.rleToRaw++
		}
		if bits[x] == fresh.LocalBits(xi) {
			tally.sameLen++
		}
	}
	if !slices.Equal(changed, want) {
		t.Fatalf("%s: Repair changed %v, want %v", tag, changed, want)
	}
	sameScheme(t, tag, base, fresh)
	checkShared(t, tag, base.stripes, kept, changed)
}

// TestRepairChangedMatchesRowDiff pins Repair's changed routers to a row
// diff against a fresh build under both policies: on the twin fixture
// of TestPatchMatchesFreshBuild (raw rows that change content but not
// length, and an untouched stripe), on that fixture after its raw→RLE
// and RLE→raw flips, on lazy bases whose stripe offsets are not byte
// aligned, and on every reference family with about 5% of its edges
// removed, built and lazy.
func TestRepairChangedMatchesRowDiff(t *testing.T) {
	n := 3*lazyStripe + 40
	pairs := [][2]int{{5, 9}, {lazyStripe + 17, lazyStripe + 200}, {3*lazyStripe + 1, 3*lazyStripe + 30}}
	g := twinGraph(n, pairs, []int{3, 2, 1}, 41)
	var twinEdges [][2]graph.NodeID
	for _, p := range pairs {
		twinEdges = append(twinEdges, [2]graph.NodeID{graph.NodeID(p[0]), graph.NodeID(p[1])})
	}
	// flip gives a raw router of the first stripe a one-port row (RLE)
	// and the degree-2 twin of the last stripe an alternating one (raw);
	// the fault turns both back.
	flip := func(s *Scheme) ([]graph.NodeID, [][]graph.Port) {
		raw, rle := graph.NodeID(0), graph.NodeID(pairs[2][0])
		for isRLE(rowOf(s, raw), raw, g.Degree(raw)) || g.Degree(raw) < 2 || raw == 5 || raw == 9 {
			raw++
		}
		rawRow, rleRow := rowOf(s, raw), rowOf(s, rle)
		for v := range n {
			if graph.NodeID(v) != raw {
				rawRow[v] = 1
			}
			if graph.NodeID(v) != rle {
				rleRow[v] = graph.Port(1 + v%2)
			}
		}
		return []graph.NodeID{raw, rle}, [][]graph.Port{rawRow, rleRow}
	}
	var tally repairTally
	unaligned := 0
	for _, pol := range []Policy{MinPort, RunGreedy} {
		for _, kind := range []string{"built", "flipped", "lazy", "lazy-flipped"} {
			tag := fmt.Sprintf("twins/%s/policy=%d", kind, pol)
			work := g.Clone()
			apsp := shortest.NewAPSPParallel(work, 0)
			base, err := New(work, apsp, pol)
			if err != nil {
				t.Fatal(err)
			}
			if kind == "flipped" || kind == "lazy-flipped" {
				routers, rows := flip(base)
				if base, err = base.WithRows(work, routers, rows); err != nil {
					t.Fatal(err)
				}
			}
			before := portRows(base)
			if kind == "lazy" || kind == "lazy-flipped" {
				base = lazyAt(work, base, 3+int(pol))
				for _, st := range base.stripes {
					if st.offs[0]%8 != 0 {
						unaligned++
					}
				}
			}
			checkRepair(t, tag, base, before, work, apsp, twinEdges, pol, &tally)
		}
	}
	for name, g := range referenceGraphs(t, 300) {
		plan := killPlan(g, 0.05, 83)
		if plan == nil {
			continue
		}
		for _, pol := range []Policy{MinPort, RunGreedy} {
			for _, lazy := range []bool{false, true} {
				tag := fmt.Sprintf("%s/policy=%d/lazy=%v", name, pol, lazy)
				work := g.Clone()
				apsp := shortest.NewAPSPParallel(work, 0)
				base, err := New(work, apsp, pol)
				if err != nil {
					t.Fatal(err)
				}
				before := portRows(base)
				if lazy {
					base = lazyAt(work, base, 5)
				}
				checkRepair(t, tag, base, before, work, apsp, plan.Edges, pol, &tally)
			}
		}
	}
	if tally.sameLen == 0 || tally.rawToRLE == 0 || tally.rleToRaw == 0 || unaligned == 0 {
		t.Fatalf("cases hold %+v changed rows and %d unaligned lazy stripes; each must be > 0", tally, unaligned)
	}
}

// TestRepairNoOpAndErrors pins Repair's edges: an empty dirty set on a
// graph without a dead slot returns nil and proves no lazy stripe; a
// dirty root out of range and a fault that disconnects the graph fail
// and leave the scheme's stripes as they were.
func TestRepairNoOpAndErrors(t *testing.T) {
	g := graph.New(600)
	for v := 1; v < 600; v++ {
		g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
	}
	for v := 0; v+7 < 300; v += 7 {
		g.AddEdge(graph.NodeID(v), graph.NodeID(v+7))
	}
	apsp := shortest.NewAPSPParallel(g, 0)
	built, err := New(g, apsp, MinPort)
	if err != nil {
		t.Fatal(err)
	}
	lazy := lazyAt(g, built, 0)
	changed, err := lazy.Repair(apsp, nil, MinPort)
	if err != nil || changed != nil {
		t.Fatalf("no-op Repair: changed %v, error %v", changed, err)
	}
	for si, st := range lazy.stripes {
		if st.wid != nil {
			t.Fatalf("no-op Repair proved stripe %d", si)
		}
	}
	kept := slices.Clone(built.stripes)
	if _, err := built.Repair(apsp, []graph.NodeID{600}, MinPort); err == nil {
		t.Fatal("Repair accepted dirty root 600 of 600")
	}
	g.RemoveEdge(450, 451) // a bridge of the path's tail
	g.Freeze()
	apsp.RefreshRows(g, []graph.NodeID{0, 450, 451})
	if _, err := built.Repair(apsp, []graph.NodeID{0, 450, 451}, MinPort); !errors.Is(err, graph.ErrNotConnected) {
		t.Fatalf("Repair of a disconnected graph: error %v, want graph.ErrNotConnected", err)
	}
	for si := range kept {
		if built.stripes[si] != kept[si] {
			t.Fatalf("failed Repair replaced stripe %d", si)
		}
	}
}
