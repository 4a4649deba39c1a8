package shortest

import "repro/internal/graph"

// ArcRows is router x's row-major view of a distance table, the input of
// the first-arc row kernel both table schemes build from. Distances are
// symmetric, so d(v,x) = Row(x)[v] and d(v,w) = Row(w)[v]: every entry of
// x's port row reads only Row(x) and the rows of x's neighbours, deg+1
// rows streamed in destination order, instead of a different n-entry row
// of the matrix per destination.
type ArcRows struct {
	x    graph.NodeID
	dx   []int32   // Row(x)
	nb   [][]int32 // nb[i] = row of the neighbour behind port i+1; nil at a dead slot
	cost []int32   // cost[i] = cost of port i+1; nil under the hop metric
}

// Load points the view at router x, whose arcs are arcs, under weights w
// (nil for the hop metric), reusing the view's slices.
func (a *ArcRows) Load(apsp *APSP, arcs []graph.NodeID, x graph.NodeID, w Weights) {
	a.x = x
	a.dx = apsp.Row(x)
	a.nb = a.nb[:0]
	for _, nb := range arcs {
		if nb == graph.DeadEnd {
			a.nb = append(a.nb, nil) // hole left by a removed edge
			continue
		}
		a.nb = append(a.nb, apsp.Row(nb))
	}
	a.cost = nil
	if w != nil {
		a.cost = w[x]
	}
}

// arcTile is the number of destinations one kernel tile covers: the
// output tile and the Row(x) tile (4 KiB each) stay in L1 while every
// neighbour row streams past them.
const arcTile = 1024

// MinPortRow writes x's MinPort row into row, which must arrive zeroed
// (NoPort everywhere) and hold one entry per destination: row[v] is the
// lowest live port p, to neighbour w, with d(w,v) + cost(p) == d(x,v),
// or NoPort where no port qualifies; row[x] is NoPort. The kernel works
// port by port, from the highest live port to the lowest, each pass a
// branch-free overwrite of the destinations it qualifies for, so the
// lowest qualifying port is written last; hop passes take two ports at
// a time, so the output tile is read and written once per pair. The
// hop metric compares in
// int32 (a distance is never negative, and an Unreachable neighbour
// entry wraps to MinInt32, which matches no distance); costs compare in
// int64, since with near-MaxInt32 costs the int32 sum can wrap and hide
// (or fake) a first arc.
func (a *ArcRows) MinPortRow(row []graph.Port) {
	n := len(a.dx)
	row = row[:n]
	for lo := 0; lo < n; lo += arcTile {
		hi := min(lo+arcTile, n)
		out, dx := row[lo:hi], a.dx[lo:hi]
		var hiRow []int32 // a live row waiting for a partner, hop metric only
		hiPort := graph.NoPort
		for i := len(a.nb) - 1; i >= 0; i-- {
			r := a.nb[i]
			if r == nil {
				continue
			}
			p := graph.Port(i + 1)
			switch {
			case a.cost != nil:
				costPass(out, dx, r[lo:hi], int64(a.cost[i]), p)
			case hiRow == nil:
				hiRow, hiPort = r[lo:hi], p
			default:
				hopPass2(out, dx, hiRow, r[lo:hi], hiPort, p)
				hiRow = nil
			}
		}
		if hiRow != nil {
			hopPass2(out, dx, hiRow, hiRow, hiPort, hiPort)
		}
	}
	row[a.x] = graph.NoPort
}

// hopPass2 makes one pass for two ports, pHi > pLo: out[v] becomes pLo
// where rLo[v]+1 == dx[v], else pHi where rHi[v]+1 == dx[v], else stays.
//
//go:noinline
func hopPass2(out []graph.Port, dx, rHi, rLo []int32, pHi, pLo graph.Port) {
	rHi, rLo, out = rHi[:len(dx)], rLo[:len(dx)], out[:len(dx)]
	for v, d := range dx {
		t := out[v]
		if rHi[v]+1 == d {
			t = pHi
		}
		if rLo[v]+1 == d {
			t = pLo
		}
		out[v] = t
	}
}

// costPass sets out[v] = p wherever r[v]+c == dx[v], summed in int64.
func costPass(out []graph.Port, dx, r []int32, c int64, p graph.Port) {
	r, out = r[:len(dx)], out[:len(dx)]
	for v, d := range dx {
		t := out[v]
		if int64(r[v])+c == int64(d) {
			t = p
		}
		out[v] = t
	}
}

// Keeps reports whether the live port p of x still begins a
// minimum-cost path toward v — the test a RunGreedy pass applies to the
// previous destination's port before falling back to the MinPort entry.
// It compares exactly as MinPortRow does.
func (a *ArcRows) Keeps(p graph.Port, v int) bool {
	r := a.nb[p-1]
	if r == nil {
		return false
	}
	if a.cost == nil {
		return r[v]+1 == a.dx[v]
	}
	return int64(r[v])+int64(a.cost[p-1]) == int64(a.dx[v])
}
