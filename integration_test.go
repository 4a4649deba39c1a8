// Integration tests: end-to-end pipelines across modules, exactly as the
// examples and experiments compose them. Unit tests certify parts; these
// certify the joints.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scheme/ecube"
	"repro/internal/scheme/interval"
	"repro/internal/scheme/kcomplete"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/scheme/tree"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// TestPipelineTheorem1EndToEnd runs the complete Theorem 1 pipeline the
// way examples/lowerbound does: parameters -> instance -> forcedness ->
// bound -> tables -> measurement -> rebuild.
func TestPipelineTheorem1EndToEnd(t *testing.T) {
	pr, err := core.ChooseParams(300, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := core.BuildInstance(pr, 123)
	if err != nil {
		t.Fatal(err)
	}
	if ins.CG.G.Order() != 300 {
		t.Fatalf("instance order %d", ins.CG.G.Order())
	}
	forced, err := ins.CG.ForcedMatrix(1.99)
	if err != nil {
		t.Fatal(err)
	}
	if !forced.Equal(ins.M) {
		t.Fatal("forced matrix mismatch")
	}
	b := core.LowerBound(pr)
	s, err := table.New(ins.CG.G, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(routing.SumBitsOver(s, ins.CG.A)) / float64(pr.P)
	if measured < b.PerRouter {
		t.Fatalf("measured %v below bound %v", measured, b.PerRouter)
	}
	if _, err := ins.VerifyRebuild(s); err != nil {
		t.Fatal(err)
	}
	// The tables must actually route on the instance with stretch 1.
	rep, err := evaluate.Stretch(ins.CG.G, s, nil, evaluate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max != 1.0 {
		t.Fatalf("instance tables stretch %v", rep.Max)
	}
}

// TestAllSchemesDeliverEverywhere validates universality of every scheme
// on its home graph in one sweep.
func TestAllSchemesDeliverEverywhere(t *testing.T) {
	r := xrand.New(55)

	gRand := gen.RandomConnected(48, 0.12, r.Split())
	apsp := shortest.NewAPSPParallel(gRand, 0)
	if s, err := table.New(gRand, apsp, table.MinPort); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gRand, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
	if s, err := interval.New(gRand, apsp, interval.Options{Labels: interval.DFSLabels(gRand), Policy: interval.RunGreedy}); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gRand, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
	if s, err := landmark.NewStreamed(gRand, landmark.Options{Seed: 5}, 0); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gRand, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}

	gCube := gen.Hypercube(5)
	if s, err := ecube.New(gCube, 5); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gCube, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
	if s, err := interval.NewHypercube1IRS(gCube, 5); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gCube, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}

	gK := gen.Complete(16)
	if s, err := kcomplete.NewFriendly(gK); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gK, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
	gK2 := gen.Complete(16)
	if s, err := kcomplete.Scramble(gK2, r.Split()); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gK2, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}

	gTree := gen.RandomTree(48, r.Split())
	if s, err := tree.New(gTree, 0); err != nil {
		t.Fatal(err)
	} else if _, err := evaluate.Stretch(gTree, s, nil, evaluate.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryHierarchyOrdering checks the paper's qualitative Table 1
// ordering on one graph: specialized schemes < landmark < tables in
// MEM_local, with the stretch ordering reversed.
func TestMemoryHierarchyOrdering(t *testing.T) {
	g := gen.Hypercube(6)
	apsp := shortest.NewAPSPParallel(g, 0)
	tb, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := ecube.New(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := landmark.NewStreamed(g, landmark.Options{Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbBits := evaluate.Memory(g, tb, evaluate.Options{}).LocalBits
	ecBits := evaluate.Memory(g, ec, evaluate.Options{}).LocalBits
	lmBits := evaluate.Memory(g, lm, evaluate.Options{}).LocalBits
	if !(ecBits < lmBits && lmBits < tbBits) {
		t.Fatalf("memory ordering violated: ecube %d, landmark %d, tables %d", ecBits, lmBits, tbBits)
	}
}

// TestConstraintGraphAdversaryInvariance: relabeling the ports of NON-
// constrained vertices never changes the forced matrix — Definition 1
// only pins the ports of A.
func TestConstraintGraphAdversaryInvariance(t *testing.T) {
	m := core.RandomMatrix(3, 8, 3, xrand.New(31))
	cg, err := core.BuildConstraintGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(32)
	inA := make(map[graph.NodeID]bool)
	for _, a := range cg.A {
		inA[a] = true
	}
	for u := 0; u < cg.G.Order(); u++ {
		if inA[graph.NodeID(u)] {
			continue
		}
		if d := cg.G.Degree(graph.NodeID(u)); d > 1 {
			cg.G.PermutePorts(graph.NodeID(u), r.Perm(d))
		}
	}
	got, err := cg.ForcedMatrix(1.9)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("scrambling non-constrained ports changed the forced matrix")
	}
}

// TestWeightedPipelineOnInstance: the Theorem 1 instance also supports
// the weighted machinery (uniform weights reproduce the hop tables).
func TestWeightedPipelineOnInstance(t *testing.T) {
	pr := core.Params{N: 80, Eps: 0.5, P: 4, Q: 30, D: 4}
	ins, err := core.BuildInstance(pr, 77)
	if err != nil {
		t.Fatal(err)
	}
	w := shortest.UniformWeights(ins.CG.G)
	s, err := table.NewWeighted(ins.CG.G, w, nil, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.VerifyRebuild(s); err != nil {
		t.Fatal(err)
	}
}
