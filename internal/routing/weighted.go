package routing

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// MeasureWeightedStretch routes every ordered pair and compares the COST
// of the routing path (sum of arc weights) with the weighted distance —
// the stretch notion used when arcs carry non-uniform costs. apsp must be
// the weighted table for w.
//
// Like MeasureStretch, this is the serial reference for the worker-pool
// engine in internal/evaluate (WeightedStretch there): the mean is
// accumulated as exact integer cost sums keyed by weighted distance so
// the two paths stay bit-identical.
func MeasureWeightedStretch(g *graph.Graph, r Function, w shortest.Weights, apsp *shortest.APSP) (StretchReport, error) {
	if apsp == nil {
		var err error
		apsp, err = shortest.NewWeightedAPSPParallel(g, w, 0)
		if err != nil {
			return StretchReport{}, err
		}
	}
	n := g.Order()
	rep := StretchReport{}
	costByDist := map[int32]int64{}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			hops, err := Route(g, r, graph.NodeID(u), graph.NodeID(v), 0)
			if err != nil {
				return rep, err
			}
			var cost int64 // int32 arc weights on a long route can exceed int32
			for _, h := range hops {
				if h.Port != graph.NoPort {
					cost += int64(w[h.Node][h.Port-1])
				}
			}
			if cost > math.MaxInt32 {
				return rep, fmt.Errorf("routing: path cost %d for pair %d->%d overflows int32", cost, u, v)
			}
			d := apsp.Dist(graph.NodeID(u), graph.NodeID(v))
			if d == shortest.Unreachable {
				return rep, fmt.Errorf("routing: pair %d->%d unreachable", u, v)
			}
			s := float64(cost) / float64(d)
			costByDist[d] += cost
			rep.Pairs++
			if l := PathLen(hops); l > rep.MaxHops {
				rep.MaxHops = l
			}
			if s > rep.Max {
				rep.Max = s
				rep.WorstU, rep.WorstV = graph.NodeID(u), graph.NodeID(v)
			}
		}
	}
	rep.Mean = MeanFromSums(costByDist, rep.Pairs)
	return rep, nil
}
