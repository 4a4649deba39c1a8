// End-to-end checks of the CLIs' distance-backend flags: the binaries
// are built once and driven as a user would, so the flag surface itself
// (accepted values, exit codes, byte-for-byte output) is pinned, not
// only the cliutil helpers behind it.
package repro

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCLIs compiles routelab, memreq and routeserve into one temporary
// directory and returns it.
func buildCLIs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/routelab", "./cmd/memreq", "./cmd/routeserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
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
