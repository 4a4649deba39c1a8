// Command routebench is the repository's end-to-end benchmark: it
// times the whole lifecycle of a routing scheme — build, encode, save,
// open, boot a loopback shard cluster, answer — then serves it under an
// open-loop load, changes scheme generations, and searches the highest
// rate that still meets a p99 bound. Every answer is checked against a
// serial in-process reference; a wrong answer exits non-zero and never
// produces a number.
//
// Usage:
//
//	routebench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-o FILE]
//	routebench -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics
// are the end-to-end ones; with -trace 1 the workload also runs a
// second, traced pass and the metrics are the per-layer ones, including
// tracing overhead (traced minus untraced) for each end-to-end metric.
// -o appends the run's records to a JSON file that -compare folds.
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the serving system sees.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_query", "us"},
	{"lat_p50_ms", "ms"},
	{"lat_p75_ms", "ms"},
	{"swap_s", "s"},
	{"heap_mb", "MB"},
}

// layerMetricDefs are the traced pass's per-layer metrics.
var layerMetricDefs = []metricDef{
	{"knee_qps_per_core", "qps/core"},
	{"client.lat_p99_ms", "ms"},
	{"netserve.rtt_p50_us", "us"},
	{"netserve.rtt_p99_us", "us"},
	{"netserve.self_share", "ratio"},
	{"netserve.req_bytes_per_query", "B/query"},
	{"netserve.resp_bytes_per_query", "B/query"},
	{"netserve.codec_ns_per_query", "ns/query"},
	{"netserve.refusals", "count"},
	{"netserve.boot_ms", "ms"},
	{"serve.batch_p50_us", "us"},
	{"serve.batch_p99_us", "us"},
	{"serve.busy_share", "ratio"},
	{"serve.swap_us", "us"},
	{"routing.hops_per_query", "hops/query"},
	{"shortest.row_calls_per_query", "rows/query"},
	{"shortest.row_p50_us", "us"},
	{"shortest.row_p99_us", "us"},
	{"shortest.row_self_share", "ratio"},
	{"shortest.apsp_ms", "ms"},
	{"shortest.refresh_ms", "ms"},
	{"table.build_ms", "ms"},
	{"table.repair_ms", "ms"},
	{"landmark.build_ms", "ms"},
	{"schemeio.encode_ms", "ms"},
	{"schemeio.write_ms", "ms"},
	{"schemeio.file_bytes", "bytes"},
	{"schemeio.open_ms", "ms"},
	{"schemeio.first_touch_ms", "ms"},
	{"schemeio.delta_encode_ms", "ms"},
	{"schemeio.delta_bytes", "bytes"},
	{"schemeio.delta_apply_ms", "ms"},
	{"faults.dirty_roots", "count"},
	{"faults.changed_rows", "count"},
	{"faults.useful_ratio", "ratio"},
	{"runtime.allocs_per_query", "allocs/query"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.cpu_busy_share", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"gen.queue_wait_p99_ms", "ms"},
	{"gen.invalid_probes", "count"},
	{"host.steal_share", "ratio"},
	{"ledger.residual_share", "ratio"},
	{"ledger.setup_residual_share", "ratio"},
	{"input.src_repeat_share", "ratio"},
	{"input.stretch_share", "ratio"},
	{"input.mean_route_len", "hops"},
	{"trace.dropped", "count"},
	{"trace.unlinked", "count"},
}

// overheadPrefix names the traced-minus-untraced metric of each
// end-to-end metric in the traced output.
const overheadPrefix = "overhead."

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run, as -o stores it and -compare reads it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the graph and the queries")
	seconds := flag.Int("seconds", 10, "measured seconds per run (1..60), split between the fixed segment and the knee search")
	trace := flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the linked span tree here")
	out := flag.String("o", "", "append the run records to this JSON file")
	cmp := flag.Bool("compare", false, "compare two -o files: routebench -compare A.json B.json")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds, for -compare")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two files"))
		}
		if err := compareFiles(*specPath, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds < 1 || *seconds > 60 {
		fail(fmt.Errorf("-seconds must be in 1..60, got %d", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *spans != "" && *trace != 1 {
		fail(fmt.Errorf("-spans needs -trace 1"))
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fail(err)
		}
		ws = []workload{w}
	}
	for _, w := range ws {
		if err := w.validate(); err != nil {
			fail(err)
		}
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }
	var recs []record
	for _, w := range ws {
		spanPath := *spans
		if spanPath != "" && len(ws) > 1 {
			spanPath = strings.TrimSuffix(spanPath, ".json") + "." + w.name + ".json"
		}
		plain, traced, err := runWorkload(w, *seed, lengthsFor(*seconds), *trace == 1, dir, spanPath, logf)
		if err != nil {
			os.RemoveAll(dir)
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		rec := plain
		if traced != nil {
			rec = traced
		}
		rec.Seconds = *seconds
		recs = append(recs, *rec)
	}
	os.RemoveAll(dir)
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fail(err)
		}
	}
	printResult(recs)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "routebench: %v\n", err)
	os.Exit(1)
}

// runWorkload runs the untraced pass and, when traced, the traced
// pass. It returns the untraced record, holding the end-to-end metrics,
// and the traced record, holding the per-layer metrics and the tracing
// overhead of each end-to-end metric (nil without tracing).
func runWorkload(w workload, seed uint64, lens lengths, traced bool, dir, spanPath string, logf func(string, ...any)) (plainRec, tracedRec *record, err error) {
	logf("%s: n=%d, %d shard(s), GOMAXPROCS=%d\n", w.name, w.n, w.shards, runtime.GOMAXPROCS(0))
	plain, err := runPass(w, seed, lens, false, dir, logf)
	if err != nil {
		return nil, nil, err
	}
	plainRec = &record{Workload: w.name, Seed: seed, Correct: true, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	for _, d := range e2eMetrics {
		plainRec.Metrics[d.name] = metricValue{plain.e2e[d.name], d.unit}
	}
	if !traced {
		return plainRec, nil, nil
	}
	logf("%s: traced pass\n", w.name)
	tp, err := runPass(w, seed, lens, true, dir, logf)
	if err != nil {
		return nil, nil, err
	}
	tracedRec = &record{Workload: w.name, Seed: seed, Trace: 1, Correct: true,
		Attempted: plain.attempted + tp.attempted, Failed: plain.failed + tp.failed, Metrics: map[string]metricValue{}}
	for _, d := range layerMetricDefs {
		tracedRec.Metrics[d.name] = metricValue{tp.layer[d.name], d.unit}
	}
	for _, d := range e2eMetrics {
		tracedRec.Metrics[overheadPrefix+d.name] = metricValue{tp.e2e[d.name] - plain.e2e[d.name], d.unit}
	}
	if spanPath != "" {
		if err := writeSpans(spanPath, w.name, tp.tree, tp.dropped); err != nil {
			return nil, nil, err
		}
	}
	return plainRec, tracedRec, nil
}

// printResult prints every metric by name with its unit, then the
// one-line JSON result. A multi-workload run prefixes metric names with
// the workload.
func printResult(recs []record) {
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range recs {
		names := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := r.Metrics[k]
			fmt.Printf("%-22s %-34s %14.6g %s\n", r.Workload, k, v.Value, v.Unit)
			if len(recs) > 1 {
				k = r.Workload + "." + k
			}
			res.Metrics[k] = v
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// appendRecords adds recs to the JSON array in path, creating it.
func appendRecords(path string, recs []record) error {
	var all []record
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	all = append(all, recs...)
	blob, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
