package shortest

import "repro/internal/graph"

// pairBFS answers single-pair hop distances by level-synchronous
// bidirectional BFS. One search grows a ball around u and one around v,
// always expanding the side whose frontier holds fewer vertices by one
// level, and stops at the first scanned arc that reaches the other
// ball; if either frontier runs out first, v is unreachable. On the
// small-diameter graphs the serving tier answers, each ball stops near
// half the distance, so a query touches a small fraction of the n
// vertices a full row would.
//
// Exactness. Let lu and lv be the levels both balls are complete to —
// every x with d(u,x) <= lu is labelled d(u,x), likewise for v — and let
// d = d(u,v). While no arc has met the other ball, d > lu + lv (true at
// the start since u != v). Expanding u's side scans the arcs x→y with
// d(u,x) = lu. An arc whose head y carries v's label dv(y) gives a walk
// u ⇝ x → y ⇝ v of length lu+1+dv(y), so
//
//	lu + lv < d <= lu+1+dv(y) <= lu+1+lv,
//
// and the walk's length is exactly d: the first meeting arc answers the
// query, and no later candidate could be shorter. If the level ends with
// no meeting, a shortest path's vertex at distance lu from u and its
// successor would have met v's ball if d were lu+1+lv, so d > (lu+1) + lv
// and the invariant carries to the next level. A frontier that empties
// has exhausted its component without reaching v's ball, so the answer
// is Unreachable. Dead ports (w < 0) are skipped exactly as BFSInto
// skips them, so the answer equals BFSInto(g, u)[v] on every graph,
// faulted ones included.
//
// Scratch is sized once per search and cleared through the visit lists,
// so a query costs what it touches, not O(n).
type pairBFS struct {
	g *graph.Graph
	// su and sv label the vertices reached from u and from v with
	// their distance + 1; 0 means not reached. The +1 offset lets the
	// zeroed allocation double as the cleared state.
	su, sv []int32
	// qu and qv hold the reached vertices in level order: the current
	// frontier is a suffix, and the whole list is the touched set the
	// labels are cleared through.
	qu, qv []graph.NodeID
}

// dist returns d_G(u, v), with Unreachable for vertices in different
// components; it equals BFSInto(g, u)[v].
func (p *pairBFS) dist(u, v graph.NodeID) int32 {
	if u == v {
		return 0
	}
	if p.su == nil {
		n := p.g.Order()
		p.su = make([]int32, n)
		p.sv = make([]int32, n)
	}
	p.su[u], p.sv[v] = 1, 1
	p.qu = append(p.qu[:0], u)
	p.qv = append(p.qv[:0], v)
	fu, fv := 0, 0 // start of each side's frontier in qu / qv
	d := Unreachable
	for d == Unreachable && fu < len(p.qu) && fv < len(p.qv) {
		if len(p.qu)-fu <= len(p.qv)-fv {
			end := len(p.qu)
			p.qu, d = expandLevel(p.g, p.su, p.sv, p.qu, fu)
			fu = end
		} else {
			end := len(p.qv)
			p.qv, d = expandLevel(p.g, p.sv, p.su, p.qv, fv)
			fv = end
		}
	}
	for _, x := range p.qu {
		p.su[x] = 0
	}
	for _, x := range p.qv {
		p.sv[x] = 0
	}
	return d
}

// expandLevel expands one side's frontier q[from:] by one level: every
// unlabelled neighbour is labelled and appended to q. It stops at the
// first scanned arc whose head the other side has labelled and returns
// the grown q with the length of the walk through that arc — d(u, v),
// by the argument on pairBFS — or with Unreachable once the whole level
// is scanned without a meeting.
func expandLevel(g *graph.Graph, mine, other []int32, q []graph.NodeID, from int) ([]graph.NodeID, int32) {
	end := len(q)
	// Every frontier vertex x carries the label d(side, x) + 1, which is
	// also the hop count of side ⇝ x → y for each neighbour y.
	next := mine[q[from]]
	for _, x := range q[from:end] {
		for _, y := range g.Arcs(x) {
			if y < 0 {
				continue
			}
			if o := other[y]; o != 0 {
				return q, next + o - 1 // side ⇝ x → y, then d(y, other side) = o-1
			}
			if mine[y] == 0 {
				mine[y] = next + 1
				q = append(q, y)
			}
		}
	}
	return q, Unreachable
}
