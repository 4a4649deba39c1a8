// End-to-end checks of the CLIs' distance-backend and fault flags: the
// binaries are built once and driven as a user would, so the flag
// surface itself (accepted values, exit codes, byte-for-byte output) is
// pinned, not only the cliutil helpers behind it.
package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// cli holds the CLI binaries, built at most once per test binary into a
// temporary directory that TestMain removes after the run.
var cli struct {
	once sync.Once
	dir  string
	err  error
}

// TestMain runs the package's tests, then removes the CLI binaries.
func TestMain(m *testing.M) {
	code := m.Run()
	if cli.dir != "" {
		os.RemoveAll(cli.dir)
	}
	os.Exit(code)
}

// buildCLIs compiles routelab, memreq and routeserve on its first call
// and returns their directory; every call fails its test when that one
// build failed.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cli.once.Do(func() {
		cli.dir, cli.err = os.MkdirTemp("", "repro-cli-")
		if cli.err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, "go", "build", "-o", cli.dir+string(filepath.Separator),
			"./cmd/routelab", "./cmd/memreq", "./cmd/routeserve")
		if out, err := cmd.CombinedOutput(); err != nil {
			cli.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if cli.err != nil {
		t.Fatal(cli.err)
	}
	return cli.dir
}

// TestRoutebenchVets type-checks cmd/routebench, the serving benchmark.
// It is its own module, so `go build ./...` and `go test ./...` from
// the root never compile it: an API change here that breaks it would
// otherwise surface only when the benchmark runs. go vet writes nothing
// into the module directory.
func TestRoutebenchVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the routebench module")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "-C", filepath.Join("cmd", "routebench"), "vet", ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C cmd/routebench vet .: %v\n%s", err, out)
	}
}

// runCLI runs one binary from dir and returns its stdout, stderr and
// exit code (-1 when it did not exit normally).
func runCLI(t *testing.T, dir, name string, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(dir, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		code = exit.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestCLIDistanceBackends pins the two-backend flag surface of the three
// evaluating CLIs: the retired cache backend and its -cacherows flag are
// usage errors (exit 2), and routeserve answers a query file with the
// same bytes under -distmode dense and -distmode stream.
func TestCLIDistanceBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the CLIs")
	}
	bin := buildCLIs(t)
	queries := filepath.Join(t.TempDir(), "q.txt")
	qs := "route 0 63\nlen 0 63\nstretch 0 63\nstretch 3 17\nlen 40 2\nstretch 63 0\nstretch 5 5\nroute 70 1\n"
	if err := os.WriteFile(queries, []byte(qs), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"routelab":   {"-run", "E1"},
		"memreq":     {"-n", "64"},
		"routeserve": {"-n", "64", "-queries", queries},
	} {
		t.Run(name, func(t *testing.T) {
			_, stderr, code := runCLI(t, bin, name, append([]string{"-distmode", "cache"}, args...)...)
			if code != 2 || !strings.Contains(stderr, "unknown distance mode") {
				t.Errorf("-distmode cache: exit %d, stderr %q; want exit 2 naming an unknown distance mode", code, stderr)
			}
			_, stderr, code = runCLI(t, bin, name, append([]string{"-cacherows", "4"}, args...)...)
			if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -cacherows") {
				t.Errorf("-cacherows 4: exit %d, stderr %q; want exit 2 for an undefined flag", code, stderr)
			}
		})
	}
	// Tables reject stream mode at build time (their state is Θ(n²)), so
	// they are saved once and loaded under each backend; landmark builds
	// under either.
	saved := filepath.Join(t.TempDir(), "tables.rsf")
	if _, stderr, code := runCLI(t, bin, "routeserve", "-n", "64", "-scheme", "tables", "-save", saved); code != 0 {
		t.Fatalf("routeserve -save: exit %d\n%s", code, stderr)
	}
	for name, args := range map[string][]string{
		"landmark": {"-n", "64", "-scheme", "landmark"},
		"tables":   {"-load", saved},
	} {
		t.Run("answers/"+name, func(t *testing.T) {
			out := map[string]string{}
			for _, mode := range []string{"dense", "stream"} {
				stdout, stderr, code := runCLI(t, bin, "routeserve", append(args, "-queries", queries, "-distmode", mode)...)
				if code != 0 {
					t.Fatalf("-distmode %s: exit %d\n%s", mode, code, stderr)
				}
				out[mode] = stdout
			}
			if out["dense"] != out["stream"] {
				t.Fatalf("answers differ:\ndense:\n%s\nstream:\n%s", out["dense"], out["stream"])
			}
			if lines := strings.Count(out["dense"], "\n"); lines != strings.Count(qs, "\n") {
				t.Fatalf("%d answer lines for %d queries:\n%s", lines, strings.Count(qs, "\n"), out["dense"])
			}
			if !strings.Contains(out["dense"], "stretch=") {
				t.Fatalf("no stretch answer in:\n%s", out["dense"])
			}
		})
	}
}

// TestCLIFaultFlags pins routeserve's fault pipeline end to end: a
// landmark -kill rebuilds the scheme on the faulted topology under
// either distance backend (so no route walks into a removed edge), a
// table -kill ships a generation patch that a server loading the base
// container applies to the same answers, -deltaout refuses the
// landmark scheme, which has no patch format, and a -killanywhere fault
// that disconnects the graph serves the pre-fault scheme with typed
// errors instead of failing the run.
func TestCLIFaultFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the CLIs")
	}
	bin := buildCLIs(t)
	dir := t.TempDir()
	// Every ordered pair of the n=64 graph, cycling through the three
	// ops, so a stale route across any of the removed edges would show.
	var qs strings.Builder
	ops := []string{"route", "len", "stretch"}
	for i := 0; i < 64*64; i++ {
		fmt.Fprintf(&qs, "%s %d %d\n", ops[i%3], i/64, i%64)
	}
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte(qs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	serve := func(t *testing.T, args ...string) string {
		t.Helper()
		stdout, stderr, code := runCLI(t, bin, "routeserve", append(args, "-queries", queries)...)
		if code != 0 {
			t.Fatalf("routeserve %v: exit %d\n%s", args, code, stderr)
		}
		if lines := strings.Count(stdout, "\n"); lines != 64*64 {
			t.Fatalf("routeserve %v: %d answer lines for %d queries", args, lines, 64*64)
		}
		return stdout
	}

	t.Run("landmark-kill", func(t *testing.T) {
		kill := []string{"-n", "64", "-scheme", "landmark", "-kill", "3"}
		dense := serve(t, append(kill, "-distmode", "dense")...)
		stream := serve(t, append(kill, "-distmode", "stream")...)
		if diff := firstDiff(dense, stream); diff != "" {
			t.Fatalf("answers differ between -distmode dense and stream: %s", diff)
		}
		for _, line := range strings.Split(dense, "\n") {
			if strings.HasPrefix(line, "error:") && !strings.Contains(line, "undefined (zero distance)") {
				t.Fatalf("post-fault landmark scheme answered with an error: %s", line)
			}
		}
	})

	t.Run("tables-delta", func(t *testing.T) {
		base := filepath.Join(dir, "base.rsf")
		patch := filepath.Join(dir, "p.rsd")
		build := []string{"-n", "64", "-scheme", "tables"}
		if _, stderr, code := runCLI(t, bin, "routeserve", append(build, "-save", base)...); code != 0 {
			t.Fatalf("routeserve -save: exit %d\n%s", code, stderr)
		}
		repaired := serve(t, append(build, "-kill", "3", "-deltaout", patch)...)
		patched := serve(t, "-load", base, "-applydelta", patch)
		if diff := firstDiff(repaired, patched); diff != "" {
			t.Fatalf("-load + -applydelta answers differ from the repaired build: %s", diff)
		}
	})

	t.Run("landmark-deltaout", func(t *testing.T) {
		_, stderr, code := runCLI(t, bin, "routeserve", "-n", "64", "-scheme", "landmark", "-kill", "3",
			"-deltaout", filepath.Join(dir, "lm.rsd"), "-queries", queries)
		if code != 2 {
			t.Fatalf("-deltaout with -scheme landmark: exit %d, want 2\n%s", code, stderr)
		}
	})

	// 180 of the graph's edges without the connectivity guard split it:
	// neither repair nor rebuild applies, so both schemes serve their
	// pre-fault tables and every broken route is a dead-port error.
	for _, scheme := range []string{"tables", "landmark"} {
		t.Run(scheme+"-disconnecting-kill", func(t *testing.T) {
			kill := []string{"-n", "64", "-scheme", scheme, "-kill", "180", "-killanywhere"}
			stdout, stderr, code := runCLI(t, bin, "routeserve", append(kill, "-queries", queries)...)
			if code != 0 {
				t.Fatalf("routeserve %v: exit %d\n%s", kill, code, stderr)
			}
			if !strings.Contains(stderr, "the fault disconnects the graph") {
				t.Fatalf("no note that the fault disconnects the graph:\n%s", stderr)
			}
			if lines := strings.Count(stdout, "\n"); lines != 64*64 {
				t.Fatalf("%d answer lines for %d queries", lines, 64*64)
			}
			deadPorts := 0
			for _, line := range strings.Split(stdout, "\n") {
				switch {
				case !strings.HasPrefix(line, "error:"), strings.Contains(line, "undefined (zero distance)"):
				case strings.Contains(line, "(edge removed)"):
					deadPorts++
				default:
					t.Fatalf("untyped error answer: %s", line)
				}
			}
			if deadPorts == 0 {
				t.Fatal("no route reported a removed edge")
			}
			if scheme != "tables" {
				return // landmark-deltaout already pins -deltaout's refusal
			}
			_, stderr, code = runCLI(t, bin, "routeserve", append(kill, "-deltaout", filepath.Join(dir, "split.rsd"), "-queries", queries)...)
			if code != 2 || !strings.Contains(stderr, "disconnects the graph") {
				t.Fatalf("-deltaout after a disconnecting kill: exit %d, want 2 naming the disconnection\n%s", code, stderr)
			}
		})
	}
}

// firstDiff names the first line where two answer streams differ, or
// returns "" when they are equal.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: %q vs %q", i+1, x, y)
		}
	}
	return ""
}
