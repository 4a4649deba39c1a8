package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkEvaluate/workers=1-8         	       1	  94811358 ns/op	 1118 B/op	      17 allocs/op	   1047552 pairs
BenchmarkEvaluate/workers=8-8         	       1	  16229428 ns/op	 2710 B/op	      60 allocs/op	   1047552 pairs
BenchmarkEvaluateStreaming/stream/workers=1-8 	       1	 120000000 ns/op
PASS
ok  	repro	4.590s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoOS != "linux" || doc.GoArch != "amd64" || doc.Pkg != "repro" {
		t.Fatalf("metadata wrong: %+v", doc)
	}
	if !strings.Contains(doc.CPU, "EPYC") {
		t.Fatalf("cpu wrong: %q", doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkEvaluate/workers=1" {
		t.Fatalf("name %q (GOMAXPROCS suffix not stripped?)", b.Name)
	}
	if b.Iterations != 1 {
		t.Fatalf("iterations %d", b.Iterations)
	}
	if b.Metrics["ns/op"] != 94811358 || b.Metrics["pairs"] != 1047552 {
		t.Fatalf("metrics wrong: %v", b.Metrics)
	}
	if doc.Benchmarks[2].Metrics["ns/op"] != 120000000 {
		t.Fatalf("bare line metrics wrong: %v", doc.Benchmarks[2].Metrics)
	}
}

func TestParseIgnoresJunk(t *testing.T) {
	doc, err := Parse(strings.NewReader("hello\nBenchmarkBroken 12 nonsense ns/op\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("junk parsed as benchmarks: %+v", doc.Benchmarks)
	}
}

// TestParseMalformedLines feeds every malformed result-line shape CI
// could plausibly emit (truncated runs, interleaved logs, corrupted
// values) and requires each to be rejected calmly: skipped by
// parseBenchLine, never a panic, never a half-parsed benchmark in the
// document.
func TestParseMalformedLines(t *testing.T) {
	malformed := []string{
		"Benchmark",                                  // bare prefix, no fields
		"BenchmarkX",                                 // name only
		"BenchmarkX 10",                              // no metrics
		"BenchmarkX 10 123",                          // value with no unit
		"BenchmarkX ten 123 ns/op",                   // non-numeric iterations
		"BenchmarkX 10 1e999x ns/op",                 // unparseable float
		"BenchmarkX 10 123 ns/op 45",                 // dangling half pair
		"BenchmarkX 99999999999999999999 123 ns/op",  // iteration overflow
		"BenchmarkX 10 123 ns/op extra words here x", // log text glued on
	}
	for _, line := range malformed {
		if b, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) accepted as %+v, want rejection", line, b)
		}
	}
	doc, err := Parse(strings.NewReader(strings.Join(malformed, "\n") + "\nBenchmarkGood-8 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "BenchmarkGood" {
		t.Fatalf("malformed lines corrupted the document: %+v", doc.Benchmarks)
	}
}

// TestParseOverlongLineError pins the failure mode for pathological
// input (a line beyond the 1 MiB scanner buffer): Parse must surface
// the scanner error, not panic or silently truncate.
func TestParseOverlongLineError(t *testing.T) {
	long := "BenchmarkHuge 1 " + strings.Repeat("9", 2*1024*1024) + " ns/op"
	if _, err := Parse(strings.NewReader(long)); err == nil {
		t.Fatal("overlong line parsed without error")
	}
}

// TestParseFoldsRepeats pins the -count N fold: three runs of each of
// two interleaved benchmarks become two entries in first-appearance
// order, whose metrics are the per-metric medians and whose runs, min
// and max record the repeats, while a benchmark that ran once keeps the
// single-run JSON shape.
func TestParseFoldsRepeats(t *testing.T) {
	const repeats = `goos: linux
BenchmarkAPSP/n=512-2   1  300 ns/op  10 B/op  2 allocs/op
BenchmarkBFS/n=64-2     1   40 ns/op
BenchmarkAPSP/n=512-2   1  100 ns/op  30 B/op  2 allocs/op
BenchmarkBFS/n=64-2     1   60 ns/op
BenchmarkAPSP/n=512-2   1  200 ns/op  20 B/op  2 allocs/op
BenchmarkBFS/n=64-2     1   50 ns/op
BenchmarkOnce-2         4    7 ns/op
PASS
`
	doc, err := Parse(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkAPSP/n=512", Iterations: 1, Runs: 3,
			Metrics: map[string]float64{"ns/op": 200, "B/op": 20, "allocs/op": 2},
			Min:     map[string]float64{"ns/op": 100, "B/op": 10, "allocs/op": 2},
			Max:     map[string]float64{"ns/op": 300, "B/op": 30, "allocs/op": 2}},
		{Name: "BenchmarkBFS/n=64", Iterations: 1, Runs: 3,
			Metrics: map[string]float64{"ns/op": 50},
			Min:     map[string]float64{"ns/op": 40},
			Max:     map[string]float64{"ns/op": 60}},
		{Name: "BenchmarkOnce", Iterations: 4, Metrics: map[string]float64{"ns/op": 7}},
	}
	if !reflect.DeepEqual(doc.Benchmarks, want) {
		t.Fatalf("folded benchmarks:\n%+v\nwant\n%+v", doc.Benchmarks, want)
	}
	once, err := json.Marshal(doc.Benchmarks[2])
	if err != nil {
		t.Fatal(err)
	}
	if got := string(once); got != `{"name":"BenchmarkOnce","iterations":4,"metrics":{"ns/op":7}}` {
		t.Fatalf("single-run entry encodes as %s", got)
	}
}
