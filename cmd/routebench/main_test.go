package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netserve"
	"repro/internal/serve"
)

// tiny shrinks a workload to a size the test suite can afford: n=128,
// short probes, two set-ups and two slices, each followed by a swap.
func tiny(w workload) workload {
	w.n = 128
	w.firstBatch = 32
	w.setups = 2
	w.fixedQPS /= 4
	w.swapEvery = 1
	if w.clients > runtime.NumCPU() {
		w.clients = runtime.NumCPU()
	}
	return w
}

var tinyLens = lengths{warm: 40 * time.Millisecond, probe: 200 * time.Millisecond, drain: 70 * time.Millisecond, slice: 200 * time.Millisecond, slices: 2}

type jsonSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// TestWorkloads drives every workload BENCHMARK.json names, traced, and
// checks the emitted metrics and the span tree.
func TestWorkloads(t *testing.T) {
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range sp.Workloads {
		t.Run(ws.Name, func(t *testing.T) {
			w, err := findWorkload(ws.Name)
			if err != nil {
				t.Fatal(err)
			}
			w = tiny(w)
			if err := w.validate(); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			spanPath := filepath.Join(dir, "spans.json")
			plain, traced, err := runWorkload(w, 7, tinyLens, true, dir, spanPath, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range sp.EndToEnd {
				v, ok := plain.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
				if m.Name != "heap_mb" && (v.Value <= 0 || math.IsInf(v.Value, 0) || math.IsNaN(v.Value)) {
					t.Errorf("end-to-end %s = %v, want a positive finite value", m.Name, v.Value)
				}
			}
			for _, m := range sp.PerLayer {
				if v, ok := traced.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			if len(plain.Metrics) != len(sp.EndToEnd) || len(traced.Metrics) != len(sp.PerLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(plain.Metrics), len(traced.Metrics), len(sp.EndToEnd), len(sp.PerLayer))
			}
			if k := traced.Metrics["knee_qps_per_core"].Value; w.knee != (k > 0) {
				t.Errorf("knee_qps_per_core = %v with knee search %v", k, w.knee)
			}
			checkSpans(t, spanPath, w.shards == 1)
			if w.name == "serve-tables" || w.name == "lifecycle-tables" {
				for _, k := range []string{"ledger.residual_share", "ledger.setup_residual_share"} {
					if r := traced.Metrics[k].Value; r <= 0 || r > 0.10 {
						t.Errorf("%s = %v, want in (0, 0.10]", k, r)
					}
				}
			}
		})
	}
}

var roots = map[string]bool{"batch": true, "setup": true, "swap": true, "check": true}

// checkSpans asserts every child span lies inside its parent and, where
// a batch's sub-batches cannot overlap (one shard), that the self times
// of a tree sum to its root's duration.
func checkSpans(t *testing.T, path string, sequential bool) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Unlinked int        `json:"unlinked"`
		Spans    []jsonSpan `json:"spans"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Unlinked != 0 {
		orphans := map[string]int{}
		for _, s := range doc.Spans {
			if s.Parent < 0 && !roots[s.Name] {
				orphans[s.Name]++
			}
		}
		t.Errorf("%d spans have no parent: %v", doc.Unlinked, orphans)
	}
	sum := make(map[int]int64) // root id → self times of its tree
	rootOf := func(i int) int {
		for doc.Spans[i].Parent >= 0 {
			i = doc.Spans[i].Parent
		}
		return i
	}
	for _, s := range doc.Spans {
		if s.Parent >= 0 {
			p := doc.Spans[s.Parent]
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Fatalf("%s [%d,%d] outside its parent %s [%d,%d]", s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
			}
		}
		if s.SelfNs < 0 {
			t.Fatalf("%s has negative self time %d", s.Name, s.SelfNs)
		}
		sum[rootOf(s.ID)] += s.SelfNs
	}
	if !sequential {
		return
	}
	// Two batches can run at once on a shard, and a row whose reader
	// was made just after the other batch started may be counted in it;
	// that may shift a few rows' time between two trees, no more.
	for id, total := range sum {
		r := doc.Spans[id]
		if d := r.EndNs - r.StartNs; math.Abs(float64(total-d)) > 0.01*float64(d) {
			t.Fatalf("%s %d: self times sum to %d ns, root lasts %d ns", r.Name, id, total, d)
		}
	}
}

// TestWrongAnswerFailsRun plants one wrong answer in a shard's replies
// and expects the run to fail on it.
func TestWrongAnswerFailsRun(t *testing.T) {
	w, err := findWorkload("serve-tables")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	var calls atomic.Int64
	w.wrap = func(_ int, h netserve.BatchHandlerInto) netserve.BatchHandlerInto {
		return func(qs []serve.Query, out []serve.Result) []serve.Result {
			out = h(qs, out)
			if calls.Add(1) == 40 {
				out[0].Len++
			}
			return out
		}
	}
	_, err = runPass(w, 3, tinyLens, false, t.TempDir(), t.Logf)
	if err == nil || !strings.Contains(err.Error(), "wrong answer") {
		t.Fatalf("run with a corrupted answer returned %v, want a wrong-answer error", err)
	}
}

func TestSteady(t *testing.T) {
	cases := []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0.3, 0.01, 0.02}, []int{0, 2, 3}},    // every steady sample
		{[]float64{0.5, 0.1, 0.3, 0, 0.2}, []int{3, 1, 4}}, // the least-stolen half, rounded up
		{[]float64{0.05, 0.05, 0.05, 0.05}, []int{0, 1}},   // ties keep their order
	}
	for _, c := range cases {
		if got := steady(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("steady(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		b     []float64
		lower bool
		want  string
	}{
		{[]float64{100, 101, 100, 99, 102}, true, "no change"},
		{[]float64{120, 121, 119, 120, 122}, true, "worse"},
		{[]float64{120, 121, 119, 120, 122}, false, "better"},
		{[]float64{60, 140, 100, 80, 120}, true, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(a, c.b, c.lower, 0.05); got != c.want {
			t.Errorf("verdict(%v, lower=%v) = %s, want %s", c.b, c.lower, got, c.want)
		}
	}
}
