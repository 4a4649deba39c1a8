package faults

import (
	"errors"
	"fmt"

	"repro/internal/evaluate"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/shortest"
)

// Outcome summarizes one Measure sweep: every ordered pair of distinct
// live vertices, classified structurally. Failure counts key off the
// typed routing.Reason constants — the harness never inspects error
// text.
type Outcome struct {
	Pairs        int // ordered live pairs swept
	Connected    int // pairs with a finite post-fault distance
	Disconnected int // pairs the fault separated
	Delivered    int // connected pairs the scheme delivered

	// DetectedDisconnect counts disconnected pairs whose route failed —
	// the correct behaviour, whatever the typed reason. FalseDeliver
	// counts disconnected pairs the scheme claimed to deliver, which is
	// impossible on a correctly simulated graph and pins the simulator's
	// honesty.
	DetectedDisconnect int
	FalseDeliver       int

	// Failures classifies every failed route (connected or not) by its
	// typed reason.
	Failures map[routing.Reason]int

	// MeanStretch is the exact fixed-fold mean of routedLen/dist over
	// delivered connected pairs (evaluate.MeanFromSums), and MaxStretch
	// the worst such ratio.
	MeanStretch float64
	MaxStretch  float64
}

// DeliveryRate returns Delivered / Connected (1 for an empty sweep).
func (o Outcome) DeliveryRate() float64 {
	if o.Connected == 0 {
		return 1
	}
	return float64(o.Delivered) / float64(o.Connected)
}

// DetectionRate returns DetectedDisconnect / Disconnected (1 when the
// fault disconnected nothing).
func (o Outcome) DetectionRate() float64 {
	if o.Disconnected == 0 {
		return 1
	}
	return float64(o.DetectedDisconnect) / float64(o.Disconnected)
}

// Inflation returns the stretch-inflation ratio of a post-fault sweep
// against its pre-fault baseline: MeanStretch(post) / MeanStretch(pre).
// 1.0 means the surviving pairs route as tightly as before the fault.
func Inflation(pre, post Outcome) float64 {
	if pre.MeanStretch == 0 {
		return 0
	}
	return post.MeanStretch / pre.MeanStretch
}

// Measure routes every ordered pair of distinct live vertices of g with
// fn and classifies each outcome against dist (an APSP of g's CURRENT
// topology — post-fault distances for a post-fault sweep). maxHops
// bounds each walk; 0 selects the routing default. Removed vertices are
// excluded from the pair space: no operator queries a decommissioned
// router.
func Measure(g *graph.Graph, fn routing.Function, dist *shortest.APSP, maxHops int) (Outcome, error) {
	n := g.Order()
	if dist.Order() != n {
		return Outcome{}, fmt.Errorf("faults: measure order mismatch: apsp %d, graph %d", dist.Order(), n)
	}
	o := Outcome{Failures: make(map[routing.Reason]int)}
	lenByDist := map[int32]int64{}
	for u := 0; u < n; u++ {
		ui := graph.NodeID(u)
		if g.Removed(ui) {
			continue
		}
		row := dist.Row(ui)
		for v := 0; v < n; v++ {
			vi := graph.NodeID(v)
			if u == v || g.Removed(vi) {
				continue
			}
			o.Pairs++
			l, err := routing.RouteLen(g, fn, ui, vi, maxHops)
			d := row[v]
			if d == shortest.Unreachable {
				o.Disconnected++
				if err != nil {
					o.DetectedDisconnect++
					if reason, ok := reasonOf(err); ok {
						o.Failures[reason]++
					}
				} else {
					o.FalseDeliver++
				}
				continue
			}
			o.Connected++
			if err != nil {
				reason, ok := reasonOf(err)
				if !ok {
					return o, fmt.Errorf("faults: untyped routing failure %d->%d: %w", u, v, err)
				}
				o.Failures[reason]++
				continue
			}
			o.Delivered++
			lenByDist[d] += int64(l)
			if s := float64(l) / float64(d); s > o.MaxStretch {
				o.MaxStretch = s
			}
		}
	}
	o.MeanStretch = evaluate.MeanFromSums(lenByDist, o.Delivered)
	return o, nil
}

// reasonOf extracts the typed reason from a routing failure.
func reasonOf(err error) (routing.Reason, bool) {
	re := &routing.RouteError{}
	if errors.As(err, &re) {
		return re.Reason, true
	}
	return 0, false
}
