// Duplicate ledger: every place the repository keeps two implementations
// of one function, with the evidence that keeps both. It runs SNIPPETS.md's
// FRAIG loop as a gate — group candidate equivalents, prove them equal,
// merge — so a pair stays only while
//
//   - a conformance test pins the candidate to its reference, and
//   - either a recorded benchmark pair in a BENCH_*.json trajectory shows
//     the candidate buys its claimed speed-up, or a keep reason says what
//     else it buys.
//
// A pair with neither is deleted, not added here. TestDuplicateLedger
// only reads files (the test sources, the BENCH files and the CI
// workflow), so it runs under -short too.
package repro

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchPair cites two results of one BENCH_*.json file. For an entry
// without a keep reason, median(slow)/median(fast) of metric must be at
// least ratio; claim no more than half the recorded ratio, so a
// re-recording on a noisy host does not flap the gate.
type benchPair struct {
	file, slow, fast, metric string
	ratio                    float64
}

// duplicate is one ledger entry.
type duplicate struct {
	reference, candidate string
	conformance          string     // Test function pinning the two equal
	bench                *benchPair // recorded evidence, or nil
	keep                 string     // why the pair stays without a proved ratio
}

// testOracle is the keep reason of a reference that only tests call.
const testOracle = "test-only oracle: no shipped caller, and its simplicity is what makes it the reference"

var duplicateLedger = []duplicate{
	{
		reference:   "per-row shortest.BFSInto loop (bfsRows; BenchmarkAPSP serial arm)",
		candidate:   "shortest.NewAPSPParallel from 64-source MSBFSInto batches",
		conformance: "TestMSBFSAPSPWorkerConformance",
		bench:       &benchPair{"BENCH_core.json", "BenchmarkAPSP/serial/n=4096", "BenchmarkAPSP/parallel-1w/n=4096", "ns/op", 1.2},
	},
	{
		reference:   "full BFS row (StreamSource Row)",
		candidate:   "shortest.PairReader bidirectional pair search",
		conformance: "TestPairDistAllPairsByFamily",
		bench:       &benchPair{"BENCH_core.json", "BenchmarkStreamPairDist/row/n=4096", "BenchmarkStreamPairDist/pair/n=4096", "ns/op", 2.9},
	},
	{
		reference:   "schemeio.ReadFile decoding to table.Scheme",
		candidate:   "schemeio.OpenMapped with the same table.Scheme store, stripes proven on first touch",
		conformance: "TestMappedReaderConformanceMatrix",
		bench:       &benchPair{"BENCH_startup.json", "BenchmarkLoadContainer/v2-full/n=2048", "BenchmarkLoadContainer/v2-mapped/n=2048", "ns/op", 5},
	},
	{
		reference:   "fault rebuild: NewAPSPParallel + table.New on the faulted graph",
		candidate:   "table.Repair after faults.RefreshRows",
		conformance: "TestFaultRepairTableBitIdentical",
		bench:       &benchPair{"BENCH_faults.json", "BenchmarkFaultRepair/n=2048/kills=8", "BenchmarkFaultRebuild/n=2048/kills=8", "ns/op", 0},
		keep: "repair is the slower arm (1039 vs 74 ms recorded); it stays only because " +
			"cmd/routebench churnCycle calls it, and deleting it waits on ROADMAP items 1 and 2",
	},
	{
		reference:   "dense evaluation (NewAPSPParallel table)",
		candidate:   "streaming evaluation (per-worker BFS rows)",
		conformance: "TestConformanceMatrix",
		bench:       &benchPair{"BENCH_evaluate.json", "BenchmarkEvaluate/workers=1", "BenchmarkEvaluateStreaming/stream/workers=1", "ns/op", 0},
		keep: "dense buys no evaluation time (89.9 vs 75.0 ms recorded, table built outside the timer); " +
			"it stays because E18/E19 record both backends and serving reads dense rows",
	},
	{
		reference:   "routing.RouteVisit",
		candidate:   "routing.RouteLen",
		conformance: "TestRouteLenMatchesRouteVisit",
		bench:       &benchPair{"BENCH_core.json", "BenchmarkRouteVisit/visit/n=4096", "BenchmarkRouteVisit/len/n=4096", "ns/op", 0},
		keep: "one nil-guarded walk behind both was measured and lost: at -benchtime 20x, 5 interleaved " +
			"pairs, len read 26.8 [24.5, 28.4] ms with this twin over per-router row codes and 31.5 " +
			"[31.5, 34.5] ms with one walk over the stripe store, slower by more than the twin's " +
			"interquartile range; on the stripe store alone, twin 45.8 [44.8, 46.5] against one walk " +
			"50.3 [44.9, 50.4] ms; so RouteLen stays a copy until a merge reads no slower",
	},
	{
		reference:   "serve.Server",
		candidate:   "serve.HotServer",
		conformance: "TestHotSwapDrain",
		keep:        "composition, not a second implementation: HotServer swaps generations of Server",
	},
	{
		reference:   "an eagerly built shortest.DistanceSource",
		candidate:   "serve.LazySource",
		conformance: "TestServePairPathEquivalence",
		keep:        "a deferred-build wrapper, not a second distance implementation",
	},
	{
		reference:   "routeserve -queries",
		candidate:   "routeserve -listen",
		conformance: "TestNetServeConformanceMatrix",
		keep:        "two front ends on one serve.Server",
	},
	{
		reference:   "serialStretch and serialMemory",
		candidate:   "evaluate.Stretch and evaluate.Memory",
		conformance: "TestExhaustiveBitIdenticalToSerial",
		keep:        testOracle,
	},
	{
		reference:   "serialDelivery",
		candidate:   "evaluate.Delivery",
		conformance: "TestDeliveryBitIdenticalToSerial",
		keep:        testOracle,
	},
	{
		reference:   "bit-at-a-time codec (bits_ref_test.go)",
		candidate:   "coding word-at-a-time ReadBits/ReadUnary/ReadFixedInto/WriteBits/WriteUnary/WriteFixedFrom",
		conformance: "TestBitKernelsMatchReferenceRandom",
		keep:        testOracle,
	},
	{
		reference:   "table row re-encode gate (canonicalByReencode: decode, encodedRowBits, writeRowCode, bit compare)",
		candidate:   "table decodeRowInto proving canonicity in the decoding pass",
		conformance: "TestDecodeRowMatchesReencodeOracle",
		keep:        testOracle,
	},
	{
		reference:   "scalar check-and-count loop over ReadFixedInto fields (scanFixedScalar)",
		candidate:   "coding (*BitReader).ScanFixed proving raw table rows in SWAR lanes of 64-bit words",
		conformance: "TestScanFixedMatchesScalar",
		keep:        testOracle,
	},
	{
		reference:   "per-destination pickOracle (early-exit scan of the neighbour rows, every row priced run by run)",
		candidate:   "port-outer row kernel (shortest.ArcRows.MinPortRow) with table's in-order RunGreedy pass and run-bounded pricing",
		conformance: "TestRowKernelMatchesPickOracle",
		keep:        testOracle,
	},
	{
		reference:   "interval per-destination selectionOracle and per-port countIntervalsOracle",
		candidate:   "interval.New on the shared row kernel with a one-pass countIntervals",
		conformance: "TestNewMatchesSelectionOracle",
		keep:        testOracle,
	},
	{
		reference:   "full-table connectivity scan (connectedScan)",
		candidate:   "shortest.(*APSP).Connected reading row 0",
		conformance: "TestConnectedMatchesFullScan",
		keep:        testOracle,
	},
	{
		reference:   "per-row DijkstraInto table",
		candidate:   "shortest.NewWeightedAPSPParallel",
		conformance: "TestWeightedAPSPParallelMatchesSerial",
		keep:        testOracle,
	},
	{
		reference:   "landmark newDense",
		candidate:   "landmark.NewStreamed",
		conformance: "TestStreamedBitIdenticalToDense",
		keep:        testOracle,
	},
}

// ledgerEnv is what the gate reads from the tree.
type ledgerEnv struct {
	tests   string                                   // every _test.go file, concatenated
	benches map[string]map[string]map[string]float64 // file -> benchmark -> metric -> median
	ci      map[string]string                        // BENCH file -> -bench regex of the CI step writing it
}

func loadLedgerEnv(t *testing.T) *ledgerEnv {
	t.Helper()
	env := &ledgerEnv{benches: map[string]map[string]map[string]float64{}}
	var tests strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			tests.Write(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	env.tests = tests.String()
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Benchmarks []struct {
				Name    string             `json:"name"`
				Metrics map[string]float64 `json:"metrics"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		env.benches[f] = map[string]map[string]float64{}
		for _, bm := range doc.Benchmarks {
			env.benches[f][bm.Name] = bm.Metrics
		}
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	env.ci = ciBenchRegexes(string(ci))
	return env
}

var (
	ciBenchFlag = regexp.MustCompile(`-bench '([^']*)'`)
	ciBenchOut  = regexp.MustCompile(`> (BENCH_\w+\.json)`)
)

// ciBenchRegexes maps each BENCH file a workflow step writes to the
// -bench regex of the go test run in the same step.
func ciBenchRegexes(ci string) map[string]string {
	out := map[string]string{}
	regex := ""
	for _, line := range strings.Split(ci, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "- name:") {
			regex = ""
		}
		if m := ciBenchFlag.FindStringSubmatch(line); m != nil {
			regex = m[1]
		}
		if m := ciBenchOut.FindStringSubmatch(line); m != nil && regex != "" {
			out[m[1]] = regex
		}
	}
	return out
}

// benchSelected reports whether go test's -bench pattern runs the named
// (sub-)benchmark: like go test, it splits the pattern at '/' and matches
// each level of the name that a pattern level exists for.
func benchSelected(pattern, name string) (bool, error) {
	pats, levels := strings.Split(pattern, "/"), strings.Split(name, "/")
	for i := 0; i < len(pats) && i < len(levels); i++ {
		ok, err := regexp.MatchString(pats[i], levels[i])
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// check returns the reasons entry d fails the gate, nil if it holds.
func (env *ledgerEnv) check(d duplicate) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if d.conformance == "" || !strings.Contains(env.tests, "func "+d.conformance+"(") {
		fail("conformance test %q is in no _test.go file", d.conformance)
	}
	if d.bench == nil {
		if d.keep == "" {
			fail("neither a benchmark pair nor a keep reason")
		}
		return errs
	}
	bp := d.bench
	doc, ok := env.benches[bp.file]
	if !ok {
		fail("%s does not exist", bp.file)
		return errs
	}
	var medians [2]float64
	for i, name := range []string{bp.slow, bp.fast} {
		m, ok := doc[name][bp.metric]
		if !ok {
			fail("%s records no %s for %s", bp.file, bp.metric, name)
			continue
		}
		medians[i] = m
		pattern, ok := env.ci[bp.file]
		if !ok {
			fail("no CI step writes %s", bp.file)
			continue
		}
		if sel, err := benchSelected(pattern, name); err != nil || !sel {
			fail("the CI step writing %s does not run %s (-bench '%s', err %v)", bp.file, name, pattern, err)
		}
	}
	if d.keep == "" && len(errs) == 0 {
		if got := medians[0] / medians[1]; got < bp.ratio {
			fail("%s: %s / %s = %.2f, below the claimed %.2f", bp.file, bp.slow, bp.fast, got, bp.ratio)
		}
	}
	return errs
}

func TestDuplicateLedger(t *testing.T) {
	env := loadLedgerEnv(t)
	for _, d := range duplicateLedger {
		for _, err := range env.check(d) {
			t.Errorf("%s vs %s: %v", d.reference, d.candidate, err)
		}
	}
}

// TestDuplicateLedgerCatchesReversal plants the reversal of every proved
// entry — slow and fast swapped — and requires the gate to reject it, so
// a ledger whose ratio check could never fail cannot pass.
func TestDuplicateLedgerCatchesReversal(t *testing.T) {
	env := loadLedgerEnv(t)
	proved := 0
	for _, d := range duplicateLedger {
		if d.keep != "" {
			continue
		}
		proved++
		rev := *d.bench
		rev.slow, rev.fast = rev.fast, rev.slow
		d.bench = &rev
		if errs := env.check(d); len(errs) == 0 {
			t.Errorf("%s vs %s: reversed benchmark pair passes the gate", d.reference, d.candidate)
		}
	}
	if proved == 0 {
		t.Fatal("the ledger has no proved entry")
	}
}
