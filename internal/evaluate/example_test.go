package evaluate_test

import (
	"fmt"

	"repro/internal/evaluate"
	"repro/internal/gen"
	"repro/internal/scheme/table"
)

// Measure the paper's two memory aggregates for a scheme.
func ExampleMemory() {
	g := gen.Cycle(16)
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		panic(err)
	}
	rep := evaluate.Memory(g, s, evaluate.Options{})
	fmt.Println("MEM_local == max per-router bits:", rep.LocalBits == rep.PerNode[rep.ArgMax])
	fmt.Println("MEM_global bounded by n * MEM_local:", rep.GlobalBits <= 16*rep.LocalBits)
	// Output:
	// MEM_local == max per-router bits: true
	// MEM_global bounded by n * MEM_local: true
}

// Verify a scheme's stretch factor over all ordered pairs.
func ExampleStretch() {
	g := gen.Petersen()
	s, err := table.New(g, nil, table.MinPort)
	if err != nil {
		panic(err)
	}
	rep, err := evaluate.Stretch(g, s, nil, evaluate.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("stretch %.1f over %d pairs\n", rep.Max, rep.Pairs)
	// Output:
	// stretch 1.0 over 90 pairs
}
