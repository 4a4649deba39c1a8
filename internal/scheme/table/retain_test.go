package table_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// TestSchemeRetainsCodeBytes pins what the one table store keeps, over
// its four producers at n=2048: built by New, decoded by
// schemeio.ReadFile, mapped by schemeio.MapBytes and proven by Verify,
// and patched by WithRows. Each holds at most its payload bytes, one
// n-port row per RLE router and 32 bytes per router more (stripe
// entries, offsets, field widths, RLE row slots, 8 pad bytes and a
// shared boundary byte per stripe). Verify allocates no more than that
// bound plus one n-port scratch row per worker and 64 KiB of allocator
// rounding. A scheme of 32-bit port rows would be about eight times the
// payload.
func TestSchemeRetainsCodeBytes(t *testing.T) {
	const n = 2048
	g, err := gen.ByName("random", n, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	apsp := shortest.NewAPSPParallel(g, 0)
	built, err := table.New(g, apsp, table.MinPort)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := schemeio.Encode(g, built)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := schemeio.WriteFileV2Encoded(&file, g, enc); err != nil {
		t.Fatal(err)
	}
	image := bytes.Clone(file.Bytes())
	_, read, err := schemeio.ReadFile(&file)
	if err != nil {
		t.Fatal(err)
	}
	m, err := schemeio.MapBytes(image)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Patch three routers with the rows RunGreedy picks for them.
	greedy, err := table.New(g, apsp, table.RunGreedy)
	if err != nil {
		t.Fatal(err)
	}
	routers := []graph.NodeID{0, n / 2, n - 1}
	rows := make([][]graph.Port, len(routers))
	for i, x := range routers {
		if rows[i], err = greedy.RowCopy(x); err != nil {
			t.Fatal(err)
		}
	}
	patched, err := built.WithRows(g, routers, rows)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []struct {
		name string
		s    any
	}{
		{"built", built},
		{"ReadFile", read},
		{"mapped", m.Scheme()},
		{"WithRows", patched},
	} {
		ts, ok := p.s.(*table.Scheme)
		if !ok {
			t.Fatalf("%s: scheme is %T, not *table.Scheme", p.name, p.s)
		}
		e, err := schemeio.Encode(g, ts)
		if err != nil {
			t.Fatal(err)
		}
		payload := len(e.Bytes)
		retained, rleRows := table.Retained(ts)
		if rleRows == 0 {
			t.Fatalf("%s: no RLE router: the pin would not cover materialized rows", p.name)
		}
		bound := payload + 4*n*rleRows + 32*n
		if retained > bound {
			t.Fatalf("%s: scheme retains %d bytes, bound %d (payload %d, %d RLE rows, n=%d)", p.name, retained, bound, payload, rleRows, n)
		}
		t.Logf("%s: retains %d bytes, payload %d, %d RLE rows", p.name, retained, payload, rleRows)
		if p.name == "mapped" {
			scratch := 4 * n * runtime.GOMAXPROCS(0)
			if alloc := int(after.TotalAlloc - before.TotalAlloc); alloc > bound+scratch+64<<10 {
				t.Fatalf("Verify allocated %d bytes, bound %d + scratch %d + 64 KiB", alloc, bound, scratch)
			}
		}
	}
}
