package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var claimCounts = []int{0, 1, 63, 64, 1000}

// worker is one worker's state: a serial number and the claims it ran.
type worker struct {
	id   int
	runs []int
}

// TestForRunsEveryClaimOnce checks that each claim runs exactly once,
// that every state a body sees came from newState, that no two workers
// share a state and that newState runs at most once per worker.
func TestForRunsEveryClaimOnce(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		for _, claims := range claimCounts {
			var mu sync.Mutex
			var states []*worker
			newState := func() *worker {
				mu.Lock()
				defer mu.Unlock()
				w := &worker{id: len(states)}
				states = append(states, w)
				return w
			}
			ran := make([]atomic.Int32, claims)
			err := For(workers, claims, newState, func(w *worker, c int) error {
				ran[c].Add(1)
				w.runs = append(w.runs, c) // unsynchronized: the race detector catches a shared state
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d claims=%d: %v", workers, claims, err)
			}
			if len(states) > Workers(workers, claims) {
				t.Fatalf("workers=%d claims=%d: newState ran %d times, want <= %d", workers, claims, len(states), Workers(workers, claims))
			}
			seen := 0
			for _, w := range states {
				seen += len(w.runs)
			}
			if seen != claims {
				t.Fatalf("workers=%d claims=%d: states saw %d claims", workers, claims, seen)
			}
			for c := range ran {
				if k := ran[c].Load(); k != 1 {
					t.Fatalf("workers=%d claims=%d: claim %d ran %d times", workers, claims, c, k)
				}
			}
		}
	}
}

// TestForLowestFailedClaimWins fails every claim at or above a
// threshold and some scattered ones, and checks that For reports the
// lowest failed claim's error and ran every claim below it.
func TestForLowestFailedClaimWins(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		for _, claims := range claimCounts {
			for _, lowest := range []int{0, claims / 3, claims - 1} {
				if lowest < 0 || lowest >= claims {
					continue
				}
				fails := func(c int) bool { return c == lowest || (c > lowest && c%7 == 3) }
				ran := make([]atomic.Bool, claims)
				err := For(workers, claims, func() struct{} { return struct{}{} }, func(_ struct{}, c int) error {
					ran[c].Store(true)
					if fails(c) {
						return fmt.Errorf("claim %d", c)
					}
					return nil
				})
				want := fmt.Sprintf("claim %d", lowest)
				if err == nil || err.Error() != want {
					t.Fatalf("workers=%d claims=%d: error %v, want %s", workers, claims, err, want)
				}
				for c := range lowest {
					if !ran[c].Load() {
						t.Fatalf("workers=%d claims=%d: claim %d below the failed claim %d was skipped", workers, claims, c, lowest)
					}
				}
			}
		}
	}
}

// TestForLaterFailureFirstInTime makes the highest claim fail at once
// and a low claim fail only after it, so the first error seen in time
// is not the lowest.
func TestForLaterFailureFirstInTime(t *testing.T) {
	for workers := 2; workers <= 8; workers++ {
		const claims = 64
		high := make(chan struct{})
		errLow, errHigh := errors.New("low"), errors.New("high")
		var once sync.Once
		err := For(workers, claims, func() struct{} { return struct{}{} }, func(_ struct{}, c int) error {
			switch c {
			case 0:
				<-high // claim 0 fails only after a higher claim has failed
				return errLow
			case workers - 1:
				once.Do(func() { close(high) })
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: error %v, want the lowest claim's", workers, err)
		}
	}
}

// TestWorkers pins the worker-count rule.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []int{0, 1, 2, procs, procs + 1, 1000} {
		if got, want := Workers(0, c), min(procs, c); got != want {
			t.Fatalf("Workers(0, %d) = %d, want %d", c, got, want)
		}
		if got, want := Workers(-3, c), min(procs, c); got != want {
			t.Fatalf("Workers(-3, %d) = %d, want %d", c, got, want)
		}
	}
	if got := Workers(5, 2); got != 2 {
		t.Fatalf("Workers(5, 2) = %d, want 2", got)
	}
	if got := Workers(3, 10); got != 3 {
		t.Fatalf("Workers(3, 10) = %d, want 3", got)
	}
}
