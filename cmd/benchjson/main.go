// Command benchjson converts `go test -bench` text output on stdin into
// the machine-readable BENCH_*.json documents CI archives, so the
// performance trajectories accumulate run over run instead of living in
// throwaway logs. The format is documented in DESIGN.md ("Bench
// trajectory"):
//
//	{
//	  "goos": "linux", "goarch": "amd64", "pkg": "repro", "cpu": "...",
//	  "benchmarks": [
//	    {"name": "BenchmarkEvaluate/workers=1", "iterations": 1,
//	     "metrics": {"ns/op": 123456, "B/op": 12, "allocs/op": 3, "pairs": 1047552}}
//	  ]
//	}
//
// Result lines that share a name — the repeats `go test -count N` prints
// — fold into one entry, in the order names first appear: "metrics"
// holds the median of each metric over the runs, and "runs", "min" and
// "max" record the run count and the extremes. A benchmark that ran once
// has none of the three fields, so single-run input converts exactly as
// before.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkEvaluate' -benchtime 1x . | benchjson > BENCH_evaluate.json
//
// The -bench regex, -benchtime and -count that write each archived
// BENCH file live in one place: its step in .github/workflows/ci.yml.
//
// Lines that are neither benchmark results nor recognized metadata pass
// through untouched semantically: they are ignored, so PASS/ok trailers
// and custom prints never corrupt the document.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line, or the fold of its repeats: then
// Iterations is the first run's, Metrics the per-metric median, and
// Runs, Min and Max are set.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Runs       int                `json:"runs,omitempty"`
	Min        map[string]float64 `json:"min,omitempty"`
	Max        map[string]float64 `json:"max,omitempty"`
}

// Document is the archived artifact.
type Document struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output and assembles the document,
// folding repeated names into one entry each.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: []Benchmark{}}
	var names []string
	runs := map[string][]Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			if _, seen := runs[b.Name]; !seen {
				names = append(names, b.Name)
			}
			runs[b.Name] = append(runs[b.Name], b)
		}
	}
	for _, name := range names {
		doc.Benchmarks = append(doc.Benchmarks, fold(runs[name]))
	}
	return doc, sc.Err()
}

// fold merges the runs of one benchmark: a single run is returned as
// is; repeats become the per-metric median, minimum and maximum over the
// runs that reported the metric.
func fold(rs []Benchmark) Benchmark {
	if len(rs) == 1 {
		return rs[0]
	}
	b := Benchmark{
		Name: rs[0].Name, Iterations: rs[0].Iterations, Runs: len(rs),
		Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{},
	}
	vals := map[string][]float64{}
	for _, r := range rs {
		for unit, v := range r.Metrics {
			vals[unit] = append(vals[unit], v)
		}
	}
	for unit, vs := range vals {
		slices.Sort(vs)
		k := len(vs) / 2
		med := vs[k]
		if len(vs)%2 == 0 {
			med = (vs[k-1] + vs[k]) / 2
		}
		b.Metrics[unit], b.Min[unit], b.Max[unit] = med, vs[0], vs[len(vs)-1]
	}
	return b
}

// parseBenchLine parses "BenchmarkName-8  10  123 ns/op  4 B/op ...":
// a name, an iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	// Strip the trailing -GOMAXPROCS suffix go test appends to the name.
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

func main() {
	doc, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
