package shortest

import (
	"math/bits"

	"repro/internal/graph"
)

// MSBFSWidth is the number of BFS sources one multi-source pass carries:
// one bit lane per source in a uint64 frontier/visited word.
const MSBFSWidth = 64

// MSBFSScratch is the caller-owned scratch of MSBFSInto: the per-vertex
// visited/frontier words and degrees and the frontier vertex lists,
// reused across batches so a worker claiming batch after batch runs with
// zero steady-state allocation (the same contract BFSInto gives its queue).
// The zero value is ready to use; it is NOT safe for concurrent use —
// one scratch per goroutine, like a BFS queue.
type MSBFSScratch struct {
	visited []uint64 // visited[v] bit i: lane i has reached v
	front   []uint64 // front[v] bit i: v is on lane i's current level
	next    []uint64 // next[v]: lanes discovering v this level
	deg     []int32  // deg[v]: arc slots of v, dead ones included
	// frontier/spill are the current and next level's vertex lists; a
	// vertex appears at most once per level (it is appended only when
	// its next word transitions 0 -> nonzero).
	frontier []graph.NodeID
	spill    []graph.NodeID
}

// reset grows the word and degree arrays to cover the vertices of g,
// zeroes the words, fills deg and returns the total number of arc
// slots, the direction rule's initial count of open arcs.
func (s *MSBFSScratch) reset(g *graph.Graph) (arcs int) {
	n := g.Order()
	if cap(s.visited) < n {
		s.visited = make([]uint64, n)
		s.front = make([]uint64, n)
		s.next = make([]uint64, n)
		s.deg = make([]int32, n)
	}
	s.visited = s.visited[:n]
	s.front = s.front[:n]
	s.next = s.next[:n]
	s.deg = s.deg[:n]
	for i := range s.visited {
		s.visited[i] = 0
		s.front[i] = 0
		s.next[i] = 0
		d := len(g.Arcs(graph.NodeID(i)))
		s.deg[i] = int32(d)
		arcs += d
	}
	return arcs
}

// msbfsDirection selects how msbfsChunk expands a level. Production
// code always runs the per-level cost rule; the kernel tests force one
// direction on every level (export_test.go), so each pass is checked on
// every input, not only where the rule happens to pick it.
type msbfsDirection uint8

const (
	dirRule     msbfsDirection = iota // per level, by msbfsBottomUp
	dirTopDown                        // every level top-down
	dirBottomUp                       // every level bottom-up
)

// msbfsForce overrides the direction rule. Only tests write it, and
// never while a kernel runs; msbfsChunk reads it once per chunk.
var msbfsForce = dirRule

// MSBFSInto runs one BFS per source simultaneously, MSBFSWidth sources
// per pass: each vertex carries one uint64 frontier word and one visited
// word, bit i belonging to sources[off+i] of the current chunk, so a
// single scan of Arcs(u) advances every lane whose frontier holds u at
// once — the word-parallel simulation idiom (64 patterns per machine
// word) applied to the frozen CSR arc scan. Like BFSInto it is
// direction-optimizing: sparse levels push the frontier words along the
// frontier's arcs (top-down), bulk levels let every vertex that some
// lane has not reached pull the OR of its neighbours' frontier words
// (bottom-up); msbfsChunk picks the direction per level. Batches wider
// than MSBFSWidth are processed in chunks of MSBFSWidth; sources may
// repeat (duplicate lanes compute identical rows) and may be empty.
//
// The result is one contiguous block of per-source distance rows: row i
// occupies dist[i*n : (i+1)*n] and is bit-identical to
// BFSInto(g, sources[i]) element for element — Unreachable included.
// The bit-identity is by construction, not by tie-break luck: the
// traversal is level-synchronized, so lane i labels v with the first
// level at which any lane-i frontier vertex reaches v, which is
// d_G(sources[i], v) — a property of the graph, independent of the order
// arcs are scanned, of the direction a level is expanded in, and of the
// order lanes are popped from a word. Every entry is written exactly
// once, so the block needs no pre-fill: a reached entry when its lane
// discovers it, an unreached one with Unreachable when its chunk ends.
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
	for off := 0; off < len(sources); off += MSBFSWidth {
		width := len(sources) - off
		if width > MSBFSWidth {
			width = MSBFSWidth
		}
		msbfsChunk(g, sources[off:off+width], dist[off*n:(off+width)*n], scr)
	}
	return dist, scr
}

// msbfsBottomUp is the direction rule: expand the next level bottom-up
// when 3·frontArcs > 2·openArcs + n, where frontArcs counts the arc
// slots of the frontier vertices and openArcs those of the vertices not
// yet full (reached by every lane). A top-down arc costs a
// read-modify-write of two words of a random vertex plus lane writes
// scattered over 64 rows; a bottom-up arc costs one OR of a frontier
// word, cut short once the OR covers every lane the vertex lacks, and
// its discoveries are written a tile at a time — so bulk levels switch
// before the frontier outweighs the open arcs. The n term is the
// bottom-up pass's floor (one visited load per vertex), which keeps the
// thin levels of paths, trees and BFS tails top-down. The constants come
// from per-level timings of both directions on random, tree, path,
// torus and hypercube graphs at n = 2048 (EXPERIMENTS.md).
func msbfsBottomUp(frontArcs, openArcs, n int) bool {
	return 3*frontArcs > 2*openArcs+n
}

// msbfsChunk advances up to MSBFSWidth lanes over g, writing lane i's
// row into dist[i*n : (i+1)*n]. Each level is expanded in the direction msbfsBottomUp picks from two
// running counts, the arc slots of the frontier and of the vertices not
// yet full:
//
//   - top-down: every frontier vertex u offers front[u] to each live
//     neighbour v, which takes front[u] &^ visited[v];
//   - bottom-up: every vertex v that is not full ORs front[w] over its
//     live arcs, stopping once the OR covers every lane v lacks, and
//     takes the OR &^ visited[v].
//
// Both passes write only next and visited and read front, so no lane
// advances two levels in one pass, and a lane reaches v at level k
// exactly when some live neighbour of v carries it at level k-1 — the
// same sets either way. Entries no lane reached are written Unreachable
// at the end.
func msbfsChunk(g *graph.Graph, sources []graph.NodeID, dist []int32, scr *MSBFSScratch) {
	n := g.Order()
	arcs := scr.reset(g)
	visited, front, next, deg := scr.visited, scr.front, scr.next, scr.deg
	frontier, spill := scr.frontier[:0], scr.spill[:0]
	full := ^uint64(0) >> uint(MSBFSWidth-len(sources)) // one bit per lane
	frontArcs, openArcs := 0, arcs
	for i, s := range sources {
		dist[i*n+int(s)] = 0
		bit := uint64(1) << uint(i)
		if front[s] == 0 {
			frontier = append(frontier, s)
			frontArcs += int(deg[s])
		}
		front[s] |= bit
		visited[s] |= bit
	}
	for _, s := range frontier {
		if visited[s] == full {
			openArcs -= int(deg[s])
		}
	}
	force := msbfsForce
	for level := int32(1); len(frontier) > 0; level++ {
		spill = spill[:0]
		if force == dirBottomUp || force == dirRule && msbfsBottomUp(frontArcs, openArcs, n) {
			for base := 0; base < n; base += MSBFSWidth {
				end := min(base+MSBFSWidth, n)
				var lanes uint64 // OR of the tile's new lanes
				writes := 0      // new entries of the tile
				for v := base; v < end; v++ {
					seen := visited[v]
					if seen == full {
						continue
					}
					arcsV := g.Arcs(graph.NodeID(v))
					var acc uint64
					for _, w := range arcsV {
						if w < 0 {
							continue // dead slot left by a removed edge
						}
						acc |= front[w]
						if acc|seen == full {
							break
						}
					}
					d := acc &^ seen
					if d == 0 {
						continue
					}
					visited[v] = seen | d
					next[v] = d
					spill = append(spill, graph.NodeID(v))
					lanes |= d
					writes += bits.OnesCount64(d)
				}
				if writes > MSBFSWidth {
					msbfsWriteTile(dist, n, base, next[base:end], lanes, level)
					continue
				}
				for v := base; lanes != 0 && v < end; v++ {
					for d := next[v]; d != 0; d &= d - 1 {
						dist[bits.TrailingZeros64(d)*n+v] = level
					}
				}
			}
		} else {
			for _, u := range frontier {
				fu := front[u]
				for _, v := range g.Arcs(u) {
					if v < 0 {
						continue // dead slot left by a removed edge
					}
					seen := visited[v]
					d := fu &^ seen
					if d == 0 {
						continue
					}
					visited[v] = seen | d
					if next[v] == 0 {
						spill = append(spill, v)
					}
					next[v] |= d
					for ; d != 0; d &= d - 1 {
						dist[bits.TrailingZeros64(d)*n+int(v)] = level
					}
				}
			}
		}
		// Commit the level: clear the consumed frontier words first (a
		// vertex can sit on the current level for one lane and the next
		// level for another), then promote the newly discovered words
		// and update the rule's counts. Only a vertex that gained lanes
		// can have become full.
		for _, u := range frontier {
			front[u] = 0
		}
		frontArcs = 0
		for _, v := range spill {
			front[v] = next[v]
			next[v] = 0
			frontArcs += int(deg[v])
			if visited[v] == full {
				openArcs -= int(deg[v])
			}
		}
		frontier, spill = spill, frontier
	}
	for v, seen := range visited {
		for miss := full &^ seen; miss != 0; miss &= miss - 1 {
			dist[bits.TrailingZeros64(miss)*n+v] = Unreachable
		}
	}
	scr.frontier, scr.spill = frontier, spill // keep grown capacity
}

// msbfsWriteTile writes level into dist for every new lane of a tile of
// vertices base, base+1, …: words holds their new-lane words (at most
// MSBFSWidth of them) and lanes is the OR of words. A bulk level
// discovers most lanes of most vertices, and writing them vertex by
// vertex strides over 64 rows n entries apart; transposing the tile
// into one vertex mask per lane makes each lane's writes one short run
// of its own row.
func msbfsWriteTile(dist []int32, n, base int, words []uint64, lanes uint64, level int32) {
	var m [MSBFSWidth]uint64
	copy(m[:], words)
	transpose64(&m)
	for ; lanes != 0; lanes &= lanes - 1 {
		lane := bits.TrailingZeros64(lanes)
		row := dist[lane*n+base : lane*n+base+len(words)]
		for vs := m[lane]; vs != 0; vs &= vs - 1 {
			row[bits.TrailingZeros64(vs)] = level
		}
	}
}

// transpose64 transposes the 64×64 bit matrix m in place: afterwards
// bit j of m[i] is what bit i of m[j] was. Each of the six rounds swaps
// the off-diagonal blocks of half the previous size (the recursive
// block transpose of Hacker's Delight §7-3, with bit 0 as column 0).
func transpose64(m *[MSBFSWidth]uint64) {
	mask := uint64(0x00000000FFFFFFFF) // low half of each block row
	for j := MSBFSWidth / 2; j != 0; j >>= 1 {
		sh := uint(j) & 63
		for b := 0; b < MSBFSWidth; b += 2 * j {
			lo, hi := m[b:b+j], m[b+j:b+2*j]
			hi = hi[:len(lo)]
			for k := range lo {
				t := (lo[k]>>sh ^ hi[k]) & mask
				lo[k] ^= t << sh
				hi[k] ^= t
			}
		}
		mask ^= mask << (sh >> 1)
	}
}
