package interval

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// OptimalLabels searches for the vertex labeling minimizing the maximum
// number of cyclic intervals per arc (the compactness objective of
// Fraigniaud & Gavoille's "Optimal interval routing" — reference [5] of
// the paper). It tries every labeling with vertex 0 pinned to label 0
// (cyclic rotations of a labeling are equivalent for cyclic intervals),
// assigning ports with the RunGreedy policy, and returns the best
// labeling with its k value.
//
// The search is (n-1)!-exponential and limited to n <= 9; it exists to
// certify small cases exactly (e.g. that a family really is 1-IRS, or
// that some graph needs k >= 2 under EVERY labeling), the same role the
// reference's lower-bound examples play.
func OptimalLabels(g *graph.Graph, apsp *shortest.APSP) ([]int32, int, error) {
	n := g.Order()
	if n > 9 {
		return nil, 0, fmt.Errorf("interval: optimal labeling search is factorial; n=%d exceeds the supported 9", n)
	}
	if apsp == nil {
		apsp = shortest.NewAPSPParallel(g, 0)
	}
	if !apsp.Connected() {
		return nil, 0, graph.ErrNotConnected
	}
	if n == 1 {
		return []int32{0}, 0, nil
	}
	bestK := int(^uint(0) >> 1)
	var bestLabels []int32
	labels := make([]int32, n)
	used := make([]bool, n)
	labels[0] = 0
	var rec func(v int)
	rec = func(v int) {
		if bestK == 1 {
			return // cannot do better than one interval per arc
		}
		if v == n {
			s, err := New(g, apsp, Options{Labels: append([]int32(nil), labels...), Policy: RunGreedy})
			if err != nil {
				return
			}
			if k := s.MaxIntervalsPerArc(); k < bestK {
				bestK = k
				bestLabels = append([]int32(nil), labels...)
			}
			return
		}
		for lab := 1; lab < n; lab++ {
			if used[lab] {
				continue
			}
			used[lab] = true
			labels[v] = int32(lab)
			rec(v + 1)
			used[lab] = false
		}
	}
	rec(1)
	if bestLabels == nil {
		return nil, 0, fmt.Errorf("interval: no labeling found")
	}
	return bestLabels, bestK, nil
}
