// End-to-end checks of the CLIs' distance-backend and fault flags, and
// of a mapped server whose container is truncated under it: the
// binaries are built once and driven as a user would, so the flag
// surface itself (accepted values, exit codes, byte-for-byte output) is
// pinned, not only the cliutil helpers behind it.
package repro

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/routing"
	"repro/internal/schemeio"
	"repro/internal/serve"
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
		mapped := serve(t, "-load", base, "-mmap", "-applydelta", patch)
		if diff := firstDiff(repaired, mapped); diff != "" {
			t.Fatalf("-load -mmap + -applydelta answers differ from the repaired build: %s", diff)
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

// TestCLIMappedTruncation truncates the container under a live
// `routeserve -load f -mmap -listen` serving a 600-router table, whose
// mapped reader proves and copies stripes of 256 routers on first
// touch. Before the cut, queries whose walks stay inside routers
// [0, 256) touch only the first stripe; after it the server must keep
// answering them byte-identically to a heap-loaded server, answer
// every query sourced in the untouched last stripe with a per-query
// error, not a dropped connection or a crash, and exit 0 through its
// drain on SIGTERM.
func TestCLIMappedTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the CLIs")
	}
	bin := buildCLIs(t)
	const n = 600
	path := filepath.Join(t.TempDir(), "s.rsf")
	if _, stderr, code := runCLI(t, bin, "routeserve", "-family", "random", "-n", fmt.Sprint(n), "-scheme", "tables", "-save", path); code != 0 {
		t.Fatalf("routeserve -save exit %d: %s", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, s, err := schemeio.ReadFile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var touched, late []serve.Query
	for u := 0; u < 256 && len(touched) < 96; u += 7 {
		for v := 0; v < 256; v += 13 {
			inside := true
			err := routing.RouteVisit(g, s, graph.NodeID(u), graph.NodeID(v), 0, func(h routing.Hop) { inside = inside && h.Node < 256 })
			if err == nil && inside && u != v {
				touched = append(touched, serve.Query{Op: serve.Op(len(touched) % 2), U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
	}
	for u := 512; u < n; u += 11 {
		late = append(late, serve.Query{Op: serve.OpLen, U: graph.NodeID(u), V: 3})
	}
	if len(touched) < 32 {
		t.Fatalf("only %d pairs route inside the first stripe", len(touched))
	}
	ref := serve.New(g, s, nil, serve.Options{})
	want := ref.ServeBatch(touched)
	for i, r := range ref.ServeBatch(late) {
		if r.Err != nil {
			t.Fatalf("heap-loaded query %d->%d: %v", late[i].U, late[i].V, r.Err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "routeserve"), "-load", path, "-mmap", "-listen", "127.0.0.1:0")
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var stderr strings.Builder
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			stderr.WriteString(line + "\n")
			if a, ok := strings.CutPrefix(line, "routeserve: listening on "); ok {
				addr <- strings.Fields(a)[0]
			}
		}
	}()
	var listenAddr string
	select {
	case listenAddr = <-addr:
	case <-ctx.Done():
		t.Fatal("routeserve never printed its listen address")
	}
	c, err := netserve.DialCluster([]string{listenAddr}, n, netserve.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	assertNetEqual(t, "before truncation", want, c.ServeBatchInto(touched, nil))
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	assertNetEqual(t, "touched stripe after truncation", want, c.ServeBatchInto(touched, nil))
	for i, r := range c.ServeBatchInto(late, nil) {
		var qe *netserve.QueryError
		if !errors.As(r.Err, &qe) {
			t.Fatalf("query %d->%d in the untouched stripe after truncation: %+v, want a per-query *netserve.QueryError", late[i].U, late[i].V, r)
		}
	}
	assertNetEqual(t, "touched stripe after the failed queries", want, c.ServeBatchInto(touched, nil))

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-drained
	if err := cmd.Wait(); err != nil {
		t.Fatalf("routeserve after SIGTERM: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "routeserve: draining") {
		t.Fatalf("routeserve did not drain:\n%s", stderr.String())
	}
}
