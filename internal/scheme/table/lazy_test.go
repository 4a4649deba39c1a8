package table

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/coding"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// TestLazyPreloadDeterministicError corrupts two non-adjacent stripes
// of a six-stripe payload and preloads it under GOMAXPROCS 1 and 4,
// with routing callers touching stripes while the workers decode. The
// error must be the lower stripe's, word for word, at every worker
// count; both poisoned stripes must answer NoPort and every other
// router must answer the heap scheme's port.
func TestLazyPreloadDeterministicError(t *testing.T) {
	n := 5*lazyStripe + 17
	g := gen.RandomConnected(n, 8.0/float64(n), xrand.New(3))
	s, err := New(g, shortest.NewAPSPParallel(g, 0), MinPort)
	if err != nil {
		t.Fatal(err)
	}
	w := coding.NewBitWriter()
	rb, start := s.EncodePayload(w)
	offs := make([]uint64, n+1)
	offs[0] = uint64(start)
	for x := 0; x < n; x++ {
		offs[x+1] = offs[x] + uint64(rb[x])
	}
	blob := w.Bytes()
	// Flip each bad router's raw/RLE flag: the rest of its span no
	// longer parses as the code the flag announces.
	bad := []int{lazyStripe + 40, 3*lazyStripe + 3}
	for _, x := range bad {
		blob[offs[x]/8] ^= 1 << (7 - offs[x]%8)
	}
	poisoned := func(x int) bool {
		for _, b := range bad {
			if x/lazyStripe == b/lazyStripe {
				return true
			}
		}
		return false
	}

	var first string
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			l := NewLazy(g, offs, func() ([]byte, error) { return blob, nil })
			check := func(x, dst int) {
				got := l.Port(graph.NodeID(x), l.Init(graph.NodeID(x), graph.NodeID(dst)))
				want := s.Port(graph.NodeID(x), s.Init(graph.NodeID(x), graph.NodeID(dst)))
				if poisoned(x) {
					want = graph.NoPort
				}
				if got != want {
					t.Errorf("Port(%d -> %d) = %d, want %d", x, dst, got, want)
				}
			}
			var wg sync.WaitGroup
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := xrand.New(seed)
					for i := 0; i < 200; i++ {
						x, dst := rng.Intn(n), rng.Intn(n)
						if x != dst {
							check(x, dst)
						}
					}
				}(uint64(c))
			}
			err = l.Preload()
			wg.Wait()
			if err == nil {
				t.Fatal("Preload accepted a payload with two corrupt stripes")
			}
			msg := err.Error()
			want := fmt.Sprintf("table: router %d", bad[0])
			if !strings.HasPrefix(msg, want) || strings.ContainsAny(msg[len(want):len(want)+1], "0123456789") {
				t.Fatalf("Preload error %q does not name router %d of the lower corrupt stripe", msg, bad[0])
			}
			if first == "" {
				first = msg
			} else if msg != first {
				t.Fatalf("Preload error %q at GOMAXPROCS %d, %q at 1", msg, procs, first)
			}
			for x := 0; x < n; x++ {
				for dst := x % 7; dst < n; dst += 7 {
					if dst != x {
						check(x, dst)
					}
				}
			}
		})
	}
}

// lazyOver encodes s and wraps its payload in a lazy scheme over g
// (NewLazy), returning it and the payload length in bytes.
func lazyOver(t *testing.T, g *graph.Graph, s *Scheme) (*Scheme, int) {
	t.Helper()
	w := coding.NewBitWriter()
	rb, start := s.EncodePayload(w)
	offs := make([]uint64, g.Order()+1)
	offs[0] = uint64(start)
	for x := range rb {
		offs[x+1] = offs[x] + uint64(rb[x])
	}
	blob := w.Bytes()
	return NewLazy(g, offs, func() ([]byte, error) { return blob, nil }), len(blob)
}

// TestLazyMatchesHeapScheme is the conformance test of the packed-code
// lookup: for every family at n=64 and 300, and a random graph of five
// stripes and a tail under both policies, the lazy scheme's Port must
// equal the built scheme's Port on every (x, dst) pair, first touch
// included. The
// cases must between them hold degree-1 routers (w = 0), RLE routers
// and more than one stripe; every pair covers dst = x±1 and x on the
// stripe edges. The built scheme answers from the same store, and
// TestSchemeMatchesPortOracle pins it to port rows of an independent
// build.
func TestLazyMatchesHeapScheme(t *testing.T) {
	type tcase struct {
		name string
		g    *graph.Graph
		pol  Policy
	}
	var cases []tcase
	for _, fam := range gen.FamilyNames {
		for _, n := range []int{64, 300} {
			g, err := gen.ByName(fam, n, xrand.New(uint64(n)))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tcase{fmt.Sprintf("%s/n=%d", fam, n), g, MinPort})
		}
	}
	for _, pol := range []Policy{MinPort, RunGreedy} {
		n := 5*lazyStripe + 17
		cases = append(cases, tcase{fmt.Sprintf("random/n=%d/policy=%d", n, pol), gen.RandomConnected(n, 8.0/float64(n), xrand.New(3)), pol})
	}
	var narrow, rle, striped int
	for _, tc := range cases {
		s, err := New(tc.g, shortest.NewAPSPParallel(tc.g, 0), tc.pol)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		l, _ := lazyOver(t, tc.g, s)
		n := tc.g.Order()
		for x := 0; x < n; x++ {
			for dst := 0; dst < n; dst++ {
				xi, di := graph.NodeID(x), graph.NodeID(dst)
				if got, want := l.Port(xi, l.Init(xi, di)), s.Port(xi, s.Init(xi, di)); got != want {
					t.Fatalf("%s: Port(%d -> %d) = %d, built scheme %d", tc.name, x, dst, got, want)
				}
			}
		}
		if err := l.Preload(); err != nil {
			t.Fatalf("%s: Preload: %v", tc.name, err)
		}
		for si := range l.stripes {
			for _, w := range l.stripes[si].wid {
				switch w {
				case 0:
					narrow++
				case rleWidth:
					rle++
				}
			}
		}
		if len(l.stripes) > 1 {
			striped++
		}
	}
	if narrow == 0 || rle == 0 || striped == 0 {
		t.Fatalf("cases hold %d degree-1 routers, %d RLE routers and %d multi-stripe graphs; each must be > 0", narrow, rle, striped)
	}
}

// TestLazyRetainsCodeBytes pins what a proven lazy scheme keeps: after
// Preload its stripes hold at most the payload bytes, one n-port row
// per RLE router and 32 bytes per router more (stripe entries, offsets,
// field widths, row slots, 8 pad bytes and a shared boundary byte per
// stripe), and Preload allocates no more than that plus one n-port
// scratch row per worker and 64 KiB of allocator rounding. A stripe
// arena of n-port rows would be about eight times the payload.
func TestLazyRetainsCodeBytes(t *testing.T) {
	n := 5*lazyStripe + 17
	g := gen.RandomConnected(n, 8.0/float64(n), xrand.New(3))
	s, err := New(g, shortest.NewAPSPParallel(g, 0), MinPort)
	if err != nil {
		t.Fatal(err)
	}
	l, payload := lazyOver(t, g, s)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := l.Preload(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	retained, rleRows := Retained(l)
	if rleRows == 0 {
		t.Fatal("no RLE router: the pin would not cover materialized rows")
	}
	bound := payload + 4*n*rleRows + 32*n
	if retained > bound {
		t.Fatalf("stripes retain %d bytes, bound %d (payload %d, %d RLE rows, n=%d)", retained, bound, payload, rleRows, n)
	}
	scratch := 4 * n * min(runtime.GOMAXPROCS(0), len(l.stripes))
	if alloc := int(after.TotalAlloc - before.TotalAlloc); alloc > bound+scratch+64<<10 {
		t.Fatalf("Preload allocated %d bytes, bound %d + scratch %d + 64 KiB", alloc, bound, scratch)
	}
}
