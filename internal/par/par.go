// Package par is the module's one worker pool. Every data-parallel
// loop — APSP rows, table, interval and landmark builds, the mapped
// table's stripe proofs, the evaluator's row sweeps and the serving
// batch — runs through For, so they share one claim order, one
// worker-count rule and one error rule:
//
//   - claims are handed out in increasing order from one atomic
//     counter, so every claim below a claim that has started has
//     started too;
//   - Workers fixes the pool size: the requested count, GOMAXPROCS when
//     it is <= 0, never more than the number of claims;
//   - For returns the error of the lowest failed claim. Once a claim
//     fails, workers stop claiming; every lower claim was claimed
//     before it and still runs, so the error reported does not depend
//     on the worker count or on scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of workers a loop over claims claims runs
// on: requested, or GOMAXPROCS when requested <= 0, capped at claims.
func Workers(requested, claims int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(min(requested, claims), 0)
}

// For runs body(s, c) once for every claim c in [0, claims) on
// Workers(workers, claims) workers and returns the error of the lowest
// failed claim, or nil. Each worker calls newState once for its own
// scratch s and passes it to every claim it wins. The caller's
// goroutine runs one of the workers, so a one-worker loop starts no
// goroutine. Claims above the lowest failed one may be skipped.
func For[S any](workers, claims int, newState func() S, body func(s S, claim int) error) error {
	workers = Workers(workers, claims)
	if workers == 0 {
		return nil
	}
	p := &pool[S]{claims: claims, newState: newState, body: body, failed: claims}
	p.wg.Add(workers - 1)
	for range workers - 1 {
		go p.run()
	}
	p.work()
	p.wg.Wait()
	return p.err
}

// pool is the state of one For call, kept in one value so a call costs
// one allocation however many workers it starts.
type pool[S any] struct {
	claims   int
	newState func() S
	body     func(S, int) error
	next     atomic.Int64
	stop     atomic.Bool // some claim failed: claim no more
	wg       sync.WaitGroup

	mu     sync.Mutex
	failed int // lowest failed claim; claims while none failed
	err    error
}

func (p *pool[S]) run() {
	defer p.wg.Done()
	p.work()
}

// work claims and runs claims until none are left or one has failed.
func (p *pool[S]) work() {
	s := p.newState()
	for !p.stop.Load() {
		c := int(p.next.Add(1) - 1)
		if c >= p.claims {
			return
		}
		if err := p.body(s, c); err != nil {
			p.mu.Lock()
			if c < p.failed {
				p.failed, p.err = c, err
			}
			p.mu.Unlock()
			p.stop.Store(true)
		}
	}
}
