package table_test

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// TestSchemeRetainsCodeBytes pins what a heap scheme keeps, built by
// New and decoded by schemeio.ReadFile at n=2048: at most its payload
// bytes, one n-port row per RLE router and 64 bytes per router more
// (the 56-byte per-router entry, the 7 pad bytes of its code and the
// partial byte its code rounds up to). A scheme of 32-bit port rows
// would be about eight times the payload.
func TestSchemeRetainsCodeBytes(t *testing.T) {
	const n = 2048
	g, err := gen.ByName("random", n, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	built, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
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
	_, read, err := schemeio.ReadFile(&file)
	if err != nil {
		t.Fatal(err)
	}
	payload := len(enc.Bytes)
	for name, s := range map[string]any{"built": built, "ReadFile": read} {
		ts, ok := s.(*table.Scheme)
		if !ok {
			t.Fatalf("%s: scheme is %T, not *table.Scheme", name, s)
		}
		retained, rleRows := table.Retained(ts)
		if bound := payload + 4*n*rleRows + 64*n; retained > bound {
			t.Fatalf("%s: scheme retains %d bytes, bound %d (payload %d, %d RLE rows, n=%d)", name, retained, bound, payload, rleRows, n)
		}
		t.Logf("%s: retains %d bytes, payload %d, %d RLE rows", name, retained, payload, rleRows)
	}
}
