package interval

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/graph"
)

// writeIntervalSection appends router x's per-port interval lists, the
// per-router span of the wire codec's EncodePayload and the code
// LocalBits meters (less the own label, which the payload carries in its
// shared label section):
//
//	per port (1..deg):            gamma(#intervals+1)
//	  per interval:               two labels of ceil(log2 n) bits each
//
// Intervals are cyclic [lo, hi] (wrapping past n-1); a destination label
// is routed on the unique port whose interval set covers it.
func (s *Scheme) writeIntervalSection(w *coding.BitWriter, x graph.NodeID) {
	wn := coding.BitsFor(uint64(len(s.label)))
	for k, cnt := range s.ivals[x] {
		ivs := s.intervalsOf(x, graph.Port(k+1))
		if len(ivs) != cnt {
			panic(fmt.Sprintf("interval: interval count mismatch at (%d, port %d): %d vs %d",
				x, k+1, len(ivs), cnt))
		}
		w.WriteGamma(uint64(cnt) + 1)
		for _, iv := range ivs {
			w.WriteBits(uint64(iv[0]), wn)
			w.WriteBits(uint64(iv[1]), wn)
		}
	}
}

// intervalsOf reconstructs the cyclic intervals of labels assigned to
// port p at x: maximal runs in cyclic label order, with the router's own
// label absorbed into an adjacent run (it is a wildcard — see
// countIntervals).
func (s *Scheme) intervalsOf(x graph.NodeID, p graph.Port) [][2]int32 {
	n := int32(len(s.label))
	own := s.label[x]
	row := s.assign[x]
	inSet := func(lab int32) bool { return lab != own && row[lab] == p }
	covered := func(lab int32) bool { return inSet(lab) || lab == own }
	var out [][2]int32
	// Find run starts: covered positions whose predecessor (skipping the
	// wildcard backwards) is not in the set. Simpler: scan cyclically for
	// boundaries where inSet turns on, then extend through wildcards that
	// are followed by more set members.
	visited := make([]bool, n)
	for start := int32(0); start < n; start++ {
		if !inSet(start) || visited[start] {
			continue
		}
		// Walk backwards over covered positions to find the run head.
		lo := start
		for i := int32(0); i < n; i++ {
			prev := (lo - 1 + n) % n
			if covered(prev) && prev != start {
				lo = prev
			} else {
				break
			}
		}
		// Trim a leading wildcard that has no set member before it.
		if lo == own {
			lo = (lo + 1) % n
		}
		// Walk forward to the run tail.
		hi := start
		for i := int32(0); i < n; i++ {
			next := (hi + 1) % n
			if covered(next) && next != lo {
				hi = next
			} else {
				break
			}
		}
		if hi == own {
			hi = (hi - 1 + n) % n
		}
		// Mark set members inside [lo, hi] visited.
		for lab := lo; ; lab = (lab + 1) % n {
			if inSet(lab) {
				visited[lab] = true
			}
			if lab == hi {
				break
			}
		}
		out = append(out, [2]int32{lo, hi})
	}
	return out
}
