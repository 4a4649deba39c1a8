package exp

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/evaluate"
)

func TestRegistryComplete(t *testing.T) {
	// DESIGN.md promises experiments E1..E11 for the paper artifacts plus
	// extensions E12..E20 and E23 (E21/E22 are recorded outside routelab).
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E23"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllSortedNumerically(t *testing.T) {
	ids := []string{}
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	want := "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E17 E18 E19 E20 E23"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "T",
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"x", "long-column"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"== T: demo ==", "a note", "long-column", "333"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendered table missing %q:\n%s", frag, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Experiment{ID: "E1", Title: "dup"})
}

func TestE2Figure1Deterministic(t *testing.T) {
	e, _ := Get("E2")
	t1, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	for _, x := range t1 {
		x.Render(&a)
	}
	for _, x := range t2 {
		x.Render(&b)
	}
	if a.String() != b.String() {
		t.Fatal("E2 not deterministic")
	}
}

func TestE3Produces7Classes(t *testing.T) {
	e, _ := Get("E3")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E3 returned %d tables, want 2", len(tables))
	}
	if got := len(tables[0].Rows); got != 7 {
		t.Fatalf("E3 listed %d canonical matrices, want 7", got)
	}
}

func TestE4AllVerified(t *testing.T) {
	e, _ := Get("E4")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[4] != "true" {
			t.Fatalf("a graph of constraints failed Lemma 2: %v", row)
		}
		if row[5] != "yes" || row[6] != "yes" {
			t.Fatalf("forcedness below stretch 2 broken: %v", row)
		}
	}
}

func TestE6BoundAlwaysHolds(t *testing.T) {
	e, _ := Get("E6")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("Lemma 1 bound violated in row %v", row)
		}
	}
}

// update rewrites the golden routelab output instead of comparing to it.
var update = flag.Bool("update", false, "rewrite testdata/routelab.golden from the current experiments")

const goldenPath = "testdata/routelab.golden"

// routelabOptions are routelab's flag defaults: all cores, exhaustive
// pairs, dense distance rows and the auto kernel.
var routelabOptions = evaluate.Options{Seed: 1, DistMode: evaluate.DistDense}

// runs caches each experiment's tables, so the tests that inspect one
// experiment share a single run of it (E5 builds 1024-vertex instances).
var runs = map[string][]*Table{}

// runExperiment runs experiment id under routelabOptions, once per test
// binary.
func runExperiment(t *testing.T, id string) []*Table {
	t.Helper()
	if tables, ok := runs[id]; ok {
		return tables
	}
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	defer SetEvalOptions(EvalOptions())
	SetEvalOptions(routelabOptions)
	tables, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	runs[id] = tables
	return tables
}

// TestStreamModeMatchesDense runs experiments that read distances
// through the evaluator — E1 and E10 on hop rows, E17 on weighted
// rows, E20 on both through the codec round trip — under routelab's
// -distmode stream, and requires every table equal to the dense run:
// the distance backend may change how distances are computed, never a
// reported number.
func TestStreamModeMatchesDense(t *testing.T) {
	for _, id := range []string{"E1", "E10", "E17", "E20"} {
		dense := runExperiment(t, id)
		e, _ := Get(id)
		stream := func() []*Table {
			defer SetEvalOptions(EvalOptions())
			SetEvalOptions(evaluate.Options{Seed: 1, DistMode: evaluate.DistStream})
			tables, err := e.Run()
			if err != nil {
				t.Fatalf("%s under stream: %v", id, err)
			}
			return tables
		}()
		if !reflect.DeepEqual(stream, dense) {
			t.Fatalf("%s: stream tables differ from dense", id)
		}
	}
}

// wallTimeExperiments print wall time in a column named "ms"; those
// cells are the only machine-dependent bytes of routelab's output.
var wallTimeExperiments = map[string]bool{"E18": true, "E19": true}

// maskWallTime returns tables with every ms cell of a wall-time
// experiment replaced by "-". The cells are masked before rendering, so
// the column widths do not depend on the timings either.
func maskWallTime(t *testing.T, id string, tables []*Table) []*Table {
	t.Helper()
	if !wallTimeExperiments[id] {
		return tables
	}
	masked := make([]*Table, len(tables))
	for i, tb := range tables {
		col := slices.Index(tb.Columns, "ms")
		if col < 0 {
			t.Fatalf("%s: table %q has no ms column to mask", id, tb.Title)
		}
		c := *tb
		c.Rows = make([][]string, len(tb.Rows))
		for r, row := range tb.Rows {
			c.Rows[r] = slices.Clone(row)
			c.Rows[r][col] = "-"
		}
		masked[i] = &c
	}
	return masked
}

// TestEveryExperimentRuns runs the whole registry, checks that every
// table is non-empty and well shaped, and compares the text routelab
// prints, with E18/E19 wall time masked, byte for byte against
// testdata/routelab.golden. Run with -update to rewrite the golden file.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var results []*Result
	for _, e := range All() {
		tables := runExperiment(t, e.ID)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", e.ID)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced an empty table %q", e.ID, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Fatalf("%s: row width %d != %d columns", e.ID, len(row), len(tb.Columns))
				}
			}
		}
		results = append(results, &Result{ID: e.ID, Title: e.Title, Tables: maskWallTime(t, e.ID, tables)})
	}
	var got bytes.Buffer
	if err := RenderResults(&got, results, Text); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if line, g, w, differ := firstDiff(got.String(), string(want)); differ {
		t.Fatalf("routelab output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)",
			goldenPath, line, g, w)
	}
}

// firstDiff returns the first line (1-based) where a and b differ and
// the two lines there; a missing line reads as "".
func firstDiff(a, b string) (line int, la, lb string, differ bool) {
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < max(len(as), len(bs)); i++ {
		la, lb = "", ""
		if i < len(as) {
			la = as[i]
		}
		if i < len(bs) {
			lb = bs[i]
		}
		if la != lb || i >= len(as) || i >= len(bs) {
			return i + 1, la, lb, true
		}
	}
	return 0, "", "", false
}

// splitSections splits rendered routelab text into one section per
// experiment, keyed by id. A section runs from its "### Ex — title"
// line to the next one, with trailing blank lines removed.
func splitSections(text string) map[string]string {
	sections := map[string]string{}
	id := ""
	var cur []string
	flush := func() {
		if id != "" {
			sections[id] = strings.TrimRight(strings.Join(cur, "\n"), "\n")
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok && strings.HasPrefix(rest, "E") {
			flush()
			id, _, _ = strings.Cut(rest, " ")
			cur = nil
		}
		cur = append(cur, line)
	}
	flush()
	return sections
}

// recordedSections extracts the recorded routelab output from
// EXPERIMENTS.md: every plain fenced block (no info string) under
// "## Recorded output". The first holds E1..E20 as routelab prints
// them; a block that directly follows a "### Ex — title" heading holds
// that experiment's tables (E23), and the heading stands for the title
// line routelab prints above them.
func recordedSections(doc string) map[string]string {
	_, rec, _ := strings.Cut(doc, "\n## Recorded output\n")
	sections := map[string]string{}
	var block []string
	inFence, plain := false, false
	heading := ""
	for _, line := range strings.Split(rec, "\n") {
		switch {
		case strings.HasPrefix(line, "```") && !inFence:
			inFence, plain, block = true, line == "```", nil
		case strings.HasPrefix(line, "```"):
			if plain {
				for id, sec := range splitSections(heading + strings.Join(block, "\n")) {
					if _, dup := sections[id]; !dup {
						sections[id] = sec
					}
				}
			}
			inFence, heading = false, ""
		case inFence:
			block = append(block, line)
		case strings.HasPrefix(line, "### E"):
			heading = line + "\n\n"
		case line != "":
			heading = ""
		}
	}
	return sections
}

// unrecordedExperiments are the experiments whose EXPERIMENTS.md block
// is not the default routelab output, and why.
var unrecordedExperiments = map[string]string{
	"E18": "the recorded block is the -e18large ladder (n up to 32768, several minutes), not the default run",
	"E19": "the recorded block keeps its ms wall-time column, which the golden file masks",
}

// TestRecordedOutputMatchesGolden checks that the routelab output
// recorded in EXPERIMENTS.md is the golden output, experiment by
// experiment, so the recorded numbers are the ones the code prints.
func TestRecordedOutputMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	recorded := recordedSections(string(doc))
	want := splitSections(string(golden))
	if len(want) != len(All()) {
		t.Fatalf("%s holds %d experiments, the registry %d", goldenPath, len(want), len(All()))
	}
	for _, e := range All() {
		if _, exempt := unrecordedExperiments[e.ID]; exempt {
			continue
		}
		got, ok := recorded[e.ID]
		if !ok {
			t.Errorf("%s: no recorded block in EXPERIMENTS.md", e.ID)
			continue
		}
		if line, g, w, differ := firstDiff(got, want[e.ID]); differ {
			t.Errorf("%s: EXPERIMENTS.md differs from %s at line %d of the block:\n recorded: %q\n   golden: %q",
				e.ID, goldenPath, line, g, w)
		}
	}
}

func TestE5RebuildAlwaysOk(t *testing.T) {
	if testing.Short() {
		t.Skip("E5 builds 1024-vertex instances")
	}
	tables := runExperiment(t, "E5")
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("rebuild failed in row %v", row)
		}
	}
}
