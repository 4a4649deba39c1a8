package table

import (
	"repro/internal/graph"
	"repro/internal/shortest"
)

// NewWeighted builds minimum-cost routing tables under non-uniform
// symmetric arc costs — the regime the paper's Table 1 comments attribute
// to the schemes of references [1] and [2]. The table layout, coding and
// routing behaviour are identical to the unweighted scheme; only the
// notion of "shortest" changes, so Theorem 1's conclusion (tables are
// uncompressible below stretch 2) covers this scheme as well.
//
// apsp, when non-nil, must be the weighted all-pairs table for (g, w) —
// mirroring New's contract — so callers that already hold one (the E19
// sweep, memreq's dense weighted path) don't pay a second n² build; nil
// computes it here. The rows are derived exactly as New derives them
// (the shared build), with arc costs in place of unit hops.
func NewWeighted(g *graph.Graph, w shortest.Weights, apsp *shortest.APSP, pol Policy) (*Scheme, error) {
	if apsp == nil {
		var err error
		apsp, err = shortest.NewWeightedAPSPParallel(g, w, 0) // validates w
		if err != nil {
			return nil, err
		}
	} else if err := w.Validate(g); err != nil {
		return nil, err
	}
	return build(g, apsp, w, pol)
}
