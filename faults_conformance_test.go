// Fault-repair conformance matrix: for every conformance family, kill a
// connectivity-preserving batch of seeded edges and pin the incremental
// table repair path (dirty-set APSP refresh + table Repair) against a
// from-scratch rebuild on the post-fault graph. "Bit-identical" is
// checked at full strength: refreshed distance rows, encoded wire bytes,
// exhaustive evaluation reports and memory reports must all be equal —
// the acceptance bar of the dynamic-topology milestone. The landmark
// scheme has no repair path: a landmark fault rebuilds with NewStreamed,
// and TestStreamedBitIdenticalToDense (internal/scheme/landmark) pins
// that rebuild against the dense reference on the same faulted graphs.
package repro

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
)

// killPlan returns a connectivity-preserving edge-kill plan of roughly
// frac of the family's edges (at least 1), or nil when the family has no
// removable edge at all — on a tree every edge is a bridge, so the
// repairable-fault matrix is vacuous there (the measurement matrix still
// covers trees with unconstrained kills).
func killPlan(t *testing.T, g *graph.Graph, frac float64, seed uint64) *faults.Plan {
	t.Helper()
	k := int(frac * float64(g.Size()))
	if k < 1 {
		k = 1
	}
	for ; k >= 1; k-- {
		plan, err := faults.NewPlan(g, faults.Options{
			Mode: faults.KillEdges, Count: k, Seed: seed, KeepConnected: true,
		})
		if err == nil {
			return plan
		}
	}
	return nil
}

// assertSchemesIdentical pins every observable of a scheme reached by
// another path (incremental repair, streamed build) against the
// from-scratch dense rebuild: wire bytes, exhaustive stretch report,
// memory report.
func assertSchemesIdentical(t *testing.T, fam string, g *graph.Graph, apsp *shortest.APSP, got, fresh routing.Scheme) {
	t.Helper()
	encR, err := schemeio.Encode(g, got)
	if err != nil {
		t.Fatalf("%s: encode got: %v", fam, err)
	}
	encF, err := schemeio.Encode(g, fresh)
	if err != nil {
		t.Fatalf("%s: encode fresh: %v", fam, err)
	}
	if !bytes.Equal(encR.Bytes, encF.Bytes) {
		t.Fatalf("%s: scheme encodes to different bytes than rebuild", fam)
	}
	opt := evaluate.Options{}
	repR, err := evaluate.Stretch(g, got, apsp, opt)
	if err != nil {
		t.Fatalf("%s: evaluate got: %v", fam, err)
	}
	repF, err := evaluate.Stretch(g, fresh, apsp, opt)
	if err != nil {
		t.Fatalf("%s: evaluate fresh: %v", fam, err)
	}
	if !reflect.DeepEqual(repR, repF) {
		t.Fatalf("%s: evaluation reports differ:\ngot:   %+v\nfresh: %+v", fam, repR, repF)
	}
	memR := evaluate.Memory(g, got, opt)
	memF := evaluate.Memory(g, fresh, opt)
	if !reflect.DeepEqual(memR, memF) {
		t.Fatalf("%s: memory reports differ", fam)
	}
}

// TestFaultRepairTableBitIdentical sweeps the conformance families under
// both table policies.
func TestFaultRepairTableBitIdentical(t *testing.T) {
	for _, f := range confFamilies() {
		for _, pol := range []table.Policy{table.MinPort, table.RunGreedy} {
			base := f.g.Clone()
			plan := killPlan(t, base, 0.08, 0xfa017+uint64(pol))
			if plan == nil {
				continue // every edge is a bridge (tree family)
			}

			// Repair path: scheme built pre-fault on the working graph.
			work := base.Clone()
			apsp := shortest.NewAPSPParallel(work, 0)
			sch, err := table.New(work, apsp, pol)
			if err != nil {
				t.Fatalf("%s: build: %v", f.name, err)
			}
			for _, e := range plan.Edges {
				work.RemoveEdge(e[0], e[1])
			}
			work.Freeze()
			dirty := faults.DirtyRoots(apsp, plan.Edges)
			apsp.RefreshRows(work, dirty)
			changed, err := sch.Repair(apsp, dirty, pol)
			if err != nil {
				t.Fatalf("%s: repair: %v", f.name, err)
			}

			// Rebuild path: from scratch on an identically faulted clone.
			faulted := base.Clone()
			plan.Apply(faulted)
			apspF := shortest.NewAPSPParallel(faulted, 0)
			for v := 0; v < faulted.Order(); v++ {
				if !reflect.DeepEqual(apsp.Row(graph.NodeID(v)), apspF.Row(graph.NodeID(v))) {
					t.Fatalf("%s: refreshed APSP row %d differs from rebuild (dirty set unsound?)", f.name, v)
				}
			}
			fresh, err := table.New(faulted, apspF, pol)
			if err != nil {
				t.Fatalf("%s: rebuild: %v", f.name, err)
			}
			assertSchemesIdentical(t, f.name, work, apsp, sch, fresh)
			if len(plan.Edges) > 0 && len(changed) == 0 && len(dirty) > 0 {
				// Not an invariant violation (a removal can leave every
				// chosen port intact), but on these families at 8% kills
				// at least one row always moves; a silent no-op would mean
				// the repair skipped everything.
				t.Logf("%s: repair changed no rows (dirty=%d)", f.name, len(dirty))
			}
		}
	}
}

// TestFaultMeasureUnrepaired pins the delivery sweep (evaluate.Delivery)
// on faulted graphs: an UNREPAIRED table scheme must fail exactly at the
// walks that cross removed edges, classified as dead-port, and must
// detect every disconnection when kills are free to split the graph.
func TestFaultMeasureUnrepaired(t *testing.T) {
	for _, f := range confFamilies() {
		base := f.g.Clone()
		apsp := shortest.NewAPSPParallel(base, 0)
		sch, err := table.New(base, apsp, table.MinPort)
		if err != nil {
			t.Fatalf("%s: build: %v", f.name, err)
		}
		pre, err := evaluate.Delivery(base, sch, apsp, evaluate.Options{})
		if err != nil {
			t.Fatalf("%s: pre measure: %v", f.name, err)
		}
		if pre.DeliveryRate() != 1 || pre.Disconnected != 0 {
			t.Fatalf("%s: pre-fault sweep not clean: %+v", f.name, pre)
		}
		// Unconstrained kills: disconnection is allowed and must be
		// detected, never falsely delivered.
		plan, err := faults.NewPlan(base, faults.Options{
			Mode: faults.KillEdges, Count: 3, Seed: 0xdead, KeepConnected: false,
		})
		if err != nil {
			t.Fatalf("%s: plan: %v", f.name, err)
		}
		plan.Apply(base)
		post, err := evaluate.Delivery(base, sch, nil, evaluate.Options{})
		if err != nil {
			t.Fatalf("%s: post measure: %v", f.name, err)
		}
		if post.FalseDeliver != 0 {
			t.Fatalf("%s: %d disconnected pairs claimed delivered", f.name, post.FalseDeliver)
		}
		if post.DetectionRate() != 1 {
			t.Fatalf("%s: missed disconnections: %+v", f.name, post)
		}
		failed := 0
		for _, c := range post.Failures {
			failed += c
		}
		if failed != post.Pairs-post.Delivered {
			t.Fatalf("%s: failure classification does not cover all failures: %+v", f.name, post)
		}
		if post.Delivered < post.Connected {
			// Stale tables on survived pairs fail only by walking into a
			// hole: dead-port must dominate the classification.
			if post.Failures[routing.ReasonDeadPort] == 0 {
				t.Fatalf("%s: undelivered survivors but no dead-port failures: %+v", f.name, post)
			}
		}
	}
}
