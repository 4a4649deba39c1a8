package shortest

import (
	"math/bits"

	"repro/internal/graph"
)

// MSBFSWidth is the number of BFS sources one multi-source pass carries:
// one bit lane per source in a uint64 frontier/visited word.
const MSBFSWidth = 64

// MSBFSScratch is the caller-owned scratch of MSBFSInto: the per-vertex
// visited/frontier words and the frontier vertex lists, reused across
// batches so a worker claiming batch after batch runs with zero
// steady-state allocation (the same contract BFSInto gives its queue).
// The zero value is ready to use; it is NOT safe for concurrent use —
// one scratch per goroutine, like a BFS queue.
type MSBFSScratch struct {
	visited []uint64 // visited[v] bit i: lane i has reached v
	front   []uint64 // front[v] bit i: v is on lane i's current level
	next    []uint64 // next[v]: lanes discovering v this level
	// frontier/spill are the current and next level's vertex lists; a
	// vertex appears at most once per level (it is appended only when
	// its next word transitions 0 -> nonzero).
	frontier []graph.NodeID
	spill    []graph.NodeID
}

// reset grows the word arrays to cover n vertices and zeroes them.
func (s *MSBFSScratch) reset(n int) {
	if cap(s.visited) < n {
		s.visited = make([]uint64, n)
		s.front = make([]uint64, n)
		s.next = make([]uint64, n)
	}
	s.visited = s.visited[:n]
	s.front = s.front[:n]
	s.next = s.next[:n]
	for i := range s.visited {
		s.visited[i] = 0
		s.front[i] = 0
		s.next[i] = 0
	}
}

// MSBFSInto runs one BFS per source simultaneously, MSBFSWidth sources
// per pass: each vertex carries one uint64 frontier word and one visited
// word, bit i belonging to sources[off+i] of the current chunk, so a
// single scan of Arcs(u) advances every lane whose frontier holds u at
// once — the word-parallel simulation idiom (64 patterns per machine
// word) applied to the frozen CSR arc scan. Batches wider than
// MSBFSWidth are processed in chunks of MSBFSWidth; sources may repeat
// (duplicate lanes compute identical rows) and may be empty.
//
// The result is one contiguous block of per-source distance rows: row i
// occupies dist[i*n : (i+1)*n] and is bit-identical to
// BFSInto(g, sources[i]) element for element — Unreachable included.
// The bit-identity is by construction, not by tie-break luck: the
// traversal is level-synchronized, so lane i labels v with the first
// level at which any lane-i frontier vertex reaches v, which is
// d_G(sources[i], v) — a property of the graph, independent of the order
// arcs are scanned or lanes are popped from a word. (BFSInto's
// direction-optimizing switch cannot be observed in its distance vector
// for the same reason.)
//
// dist and scr follow the BFSInto scratch contract: reused when large
// enough, reallocated otherwise (scr may be nil), and both are returned
// so batch-claiming workers run allocation-free in steady state. Callers
// freeze the graph before fanning out, as with BFSInto.
//
//repolint:hotpath
func MSBFSInto(g *graph.Graph, sources []graph.NodeID, dist []int32, scr *MSBFSScratch) ([]int32, *MSBFSScratch) {
	n := g.Order()
	if scr == nil {
		scr = &MSBFSScratch{}
	}
	total := len(sources) * n
	if cap(dist) < total {
		dist = make([]int32, total)
	}
	dist = dist[:total]
	for i := range dist {
		dist[i] = Unreachable
	}
	for off := 0; off < len(sources); off += MSBFSWidth {
		width := len(sources) - off
		if width > MSBFSWidth {
			width = MSBFSWidth
		}
		msbfsChunk(g, sources[off:off+width], dist[off*n:(off+width)*n], scr)
	}
	return dist, scr
}

// msbfsChunk advances up to MSBFSWidth lanes over g, writing lane i's
// row into dist[i*n : (i+1)*n] (rows arrive pre-filled with Unreachable
// except for nothing — the 0 at each source is set here).
func msbfsChunk(g *graph.Graph, sources []graph.NodeID, dist []int32, scr *MSBFSScratch) {
	n := g.Order()
	scr.reset(n)
	visited, front, next := scr.visited, scr.front, scr.next
	frontier, spill := scr.frontier[:0], scr.spill[:0]
	for i, s := range sources {
		dist[i*n+int(s)] = 0
		bit := uint64(1) << uint(i)
		if front[s] == 0 {
			frontier = append(frontier, s)
		}
		front[s] |= bit
		visited[s] |= bit
	}
	for level := int32(1); len(frontier) > 0; level++ {
		spill = spill[:0]
		for _, u := range frontier {
			fu := front[u]
			for _, v := range g.Arcs(u) {
				if v < 0 {
					continue // dead slot left by a removed edge
				}
				d := fu &^ visited[v]
				if d == 0 {
					continue
				}
				visited[v] |= d
				if next[v] == 0 {
					spill = append(spill, v)
				}
				next[v] |= d
				for d != 0 {
					lane := bits.TrailingZeros64(d)
					d &= d - 1
					dist[lane*n+int(v)] = level
				}
			}
		}
		// Commit the level: clear the consumed frontier words first (a
		// vertex can sit on the current level for one lane and the next
		// level for another), then promote the newly discovered words.
		for _, u := range frontier {
			front[u] = 0
		}
		for _, v := range spill {
			front[v] = next[v]
			next[v] = 0
		}
		frontier, spill = spill, frontier
	}
	scr.frontier, scr.spill = frontier, spill // keep grown capacity
}
