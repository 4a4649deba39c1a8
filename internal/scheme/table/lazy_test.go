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
			l, err := NewLazy(g, offs, func() ([]byte, error) { return blob, nil })
			if err != nil {
				t.Fatal(err)
			}
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
