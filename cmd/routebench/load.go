package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/netserve"
	"repro/internal/serve"
)

// phaseResult is what one open-loop pass measured. Query counts cover
// only batches due inside the measured window.
type phaseResult struct {
	offered, completed int64 // queries due in the window / answered by the deadline
	failed, refused    int64 // queries answered with an error / refused by admission
	mismatched         int64 // answers that differ from the reference, warm-up included
	hops               int64 // sum of routed lengths of answered queries
	// answered counts every query answered without error, warm-up and
	// drain included, and cpu is the process CPU time over the same
	// span, control work included.
	answered          int64
	cpu               time.Duration
	lats              []float64
	late, waits       []float64 // generator sleep overshoot / due → send, ms
	rtBefore, rtAfter rtSample
	from, to          time.Time // the measured window
	firstBad          string
}

func (p *phaseResult) p(q float64) float64 { return quantile(p.lats, q) }

// steal is the share of the machine's CPU time the hypervisor took
// during the measured window.
func (p *phaseResult) steal() float64 { return stealShare(p.rtBefore, p.rtAfter) }

// openLoop fires the pool at rate queries/s from w.clients goroutines.
// Batch i is due at start + i·batch/rate whatever happened to batch
// i-1; a client that is free sleeps until its claimed batch is due,
// one that is busy sends it late, and latency runs from the due time
// to gather complete, so queueing shows. Batches due in [warm,
// warm+window) are measured; a client abandons the schedule at
// warm+window+drain. ref, when non-nil, is the per-set reference every
// answer must equal; otherwise only errors are counted. control, when
// non-nil, runs beside the load from the window's start and is waited
// for.
func openLoop(st *stack, rate float64, warm, window, drain time.Duration, ref [][]serve.Result, control func(windowStart time.Time)) *phaseResult {
	w := st.w
	intervalNs := float64(w.batch) * 1e9 / rate
	total := int64(math.Ceil(float64(warm+window) / intervalNs))
	warmJobs := int64(math.Ceil(float64(warm) / intervalNs))
	// Collect the previous phase's garbage first, so every window starts
	// from the same collector state.
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now().Add(time.Millisecond)
	deadline := start.Add(warm + window + drain)
	due := func(i int64) time.Time { return start.Add(time.Duration(float64(i) * intervalNs)) }

	stats := make([]phaseResult, w.clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(cs *phaseResult) {
			defer wg.Done()
			var out []serve.Result
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				d := due(i)
				claimed := time.Now()
				if claimed.After(deadline) {
					return
				}
				idle := claimed.Before(d)
				if idle {
					sleepUntil(d)
				}
				id := int(i % int64(st.in.pool))
				var key int64
				if st.tr != nil {
					key = st.tr.root()
				}
				sent := time.Now()
				out = st.call(key, id, out)
				done := time.Now()
				if st.tr != nil {
					st.tr.add(span{kind: kGenWait, key: key, aux: -1, start: st.tr.at(d), end: st.tr.at(sent)})
					st.tr.add(span{kind: kBatch, key: key, aux: int32(id), n: int32(len(out)), start: st.tr.at(d), end: st.tr.at(done)})
				}
				// Every answer is checked, warm-up and late ones included.
				bad := false
				for j, r := range out {
					if r.Err != nil {
						bad = true
					} else if ref != nil && !sameResult(r, ref[id][j]) {
						cs.mismatched++
						if cs.firstBad == "" {
							cs.firstBad = fmt.Sprintf("batch %d query %d: %+v, reference %+v", id, j, r, ref[id][j])
						}
					}
				}
				if !bad {
					cs.answered += int64(len(out))
				}
				if i < warmJobs {
					continue
				}
				cs.offered += int64(len(out))
				lat := done.Sub(d)
				if done.After(deadline) {
					cs.lats = append(cs.lats, float64(lat)/1e6)
					continue
				}
				wait := sent.Sub(d)
				cs.waits = append(cs.waits, float64(wait)/1e6)
				if idle {
					cs.late = append(cs.late, float64(wait)/1e6)
				}
				if bad {
					for _, r := range out {
						var refusal *netserve.Refusal
						switch {
						case r.Err == nil:
							continue
						case errors.As(r.Err, &refusal):
							cs.refused++
						default:
							cs.failed++
						}
						if cs.firstBad == "" {
							cs.firstBad = r.Err.Error()
						}
					}
					cs.lats = append(cs.lats, math.Inf(1)) // a failed batch misses every bound
					continue
				}
				for _, r := range out {
					cs.hops += int64(r.Len)
				}
				cs.completed += int64(len(out))
				cs.lats = append(cs.lats, float64(lat)/1e6)
			}
		}(&stats[c])
	}
	windowStart := start.Add(warm)
	var ctlDone sync.WaitGroup
	if control != nil {
		ctlDone.Add(1)
		go func() {
			defer ctlDone.Done()
			control(windowStart)
		}()
	}
	res := &phaseResult{from: windowStart, to: windowStart.Add(window)}
	time.Sleep(time.Until(windowStart))
	res.rtBefore = sampleRuntime()
	time.Sleep(time.Until(windowStart.Add(window)))
	res.rtAfter = sampleRuntime()
	wg.Wait()
	ctlDone.Wait()
	res.cpu = cpuTime() - cpu0

	// Batches due in the window that no client reached before the
	// deadline were offered and never answered.
	measured := int64(0)
	for c := range stats {
		s := &stats[c]
		measured += int64(len(s.lats))
		res.offered += s.offered
		res.completed += s.completed
		res.failed += s.failed
		res.refused += s.refused
		res.mismatched += s.mismatched
		res.hops += s.hops
		res.answered += s.answered
		res.lats = append(res.lats, s.lats...)
		res.late = append(res.late, s.late...)
		res.waits = append(res.waits, s.waits...)
		if res.firstBad == "" {
			res.firstBad = s.firstBad
		}
	}
	for missing := (total - warmJobs) - measured; missing > 0; missing-- {
		res.offered += int64(w.batch)
		res.lats = append(res.lats, math.Inf(1))
	}
	sort.Float64s(res.lats)
	sort.Float64s(res.late)
	sort.Float64s(res.waits)
	return res
}

// sleepUntil pauses the calling goroutine's thread in nanosleep until
// t: the runtime's timers wake an idle process up to a millisecond
// late, which would be generator lateness, while nanosleep overshoots
// by tens of microseconds. The runtime hands the thread's processor to
// other goroutines while it sleeps.
func sleepUntil(t time.Time) {
	ts := syscall.NsecToTimespec(int64(time.Until(t)))
	syscall.Nanosleep(&ts, nil)
}

// sameResult compares a served answer with its reference, bit for bit.
func sameResult(a, b serve.Result) bool {
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return a.Err.Error() == b.Err.Error()
	}
	if a.Len != b.Len || a.Dist != b.Dist || math.Float64bits(a.Stretch) != math.Float64bits(b.Stretch) || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// maxLateMs bounds the generator's sleep overshoot at p99: a probe
// whose batches left later than this measured the generator.
const maxLateMs = 1.0

// tail is the p99 of an ascending sample or, below 1000 samples, the
// value ten samples from the top: a percentile needs ten samples beyond
// it to repeat, and in a short probe one stall is not a tail.
func tail(sorted []float64) float64 {
	switch {
	case len(sorted) >= 1000:
		return quantile(sorted, 0.99)
	case len(sorted) <= 10:
		return 0
	}
	return sorted[len(sorted)-11]
}

// probe is one knee-search step at a fixed rate.
type probe struct {
	rate    float64
	pass    bool
	invalid bool // the generator ran late twice with the cores idle
	why     string
	busy    float64
	phase   *phaseResult
}

// runProbe measures one rate. It passes when no query failed or was
// refused, the tail latency is within the workload's bound, 98% of the
// offered queries completed, and the generator was not late. A probe
// whose generator ran late while the process left the cores idle
// measured the generator, not the servers, and one during which the
// hypervisor took more than maxSteal of the CPUs measured the host: it
// is retried once, and if it is invalid again it fails, so it can
// neither raise nor confirm a knee.
func runProbe(st *stack, lens lengths, rate float64, ref [][]serve.Result, logf func(string, ...any)) (probe, error) {
	if st.tr != nil {
		// openLoop returns once every batch is answered, so no span is
		// in flight when recording pauses or resumes.
		st.tr.paused.Store(true)
		defer st.tr.paused.Store(false)
	}
	for attempt := 0; ; attempt++ {
		ph := openLoop(st, rate, lens.warm, lens.probe, lens.drain, ref, nil)
		pr := probe{rate: rate, phase: ph, busy: busyShare(ph.rtBefore, ph.rtAfter)}
		if ph.mismatched > 0 {
			return pr, fmt.Errorf("wrong answer at %.0f q/s: %s", rate, ph.firstBad)
		}
		late := tail(ph.late)
		if steal := ph.steal(); (late > maxLateMs && pr.busy < 0.5) || steal > maxSteal {
			why := fmt.Sprintf("generator %.2f ms late with the cores %.0f%% busy, steal %.3f", late, 100*pr.busy, steal)
			if attempt == 0 {
				logf("  probe %9.0f q/s INVALID: %s; retrying\n", rate, why)
				continue
			}
			pr.invalid = true
			pr.why = "INVALID twice: " + why
			return pr, nil
		}
		lat := tail(ph.lats)
		switch {
		case ph.failed+ph.refused > 0:
			pr.why = fmt.Sprintf("%d failed, %d refused", ph.failed, ph.refused)
		case lat > float64(st.w.p99Bound)/1e6:
			pr.why = fmt.Sprintf("p99 %.2f ms over %v", lat, st.w.p99Bound)
		case float64(ph.completed) < 0.98*float64(ph.offered):
			pr.why = fmt.Sprintf("%d of %d completed", ph.completed, ph.offered)
		case late > maxLateMs:
			pr.why = fmt.Sprintf("generator %.2f ms late at p99", late)
		default:
			pr.pass = true
		}
		return pr, nil
	}
}

// The knee search grows the rate by kneeStep until a rate fails,
// bisects the bracket down to kneeResolution, then walks a staircase of
// stairProbes probes in kneeResolution steps.
const (
	kneeStep       = 1.5
	kneeResolution = 1.03
	stairProbes    = 10
	kneeMaxProbes  = 64
)

// kneeResult is a confirmed knee and the probes that found it.
type kneeResult struct {
	qps    float64
	busy   float64 // process CPU share during the confirming probe
	probes []probe
}

func (kr kneeResult) invalid() int {
	n := 0
	for _, pr := range kr.probes {
		if pr.invalid {
			n++
		}
	}
	return n
}

// kneeSearch finds the knee, starting at start; probeAt measures one
// rate. Near the knee a short probe is a coin toss — its p99 hinges on
// whether a stall landed in it — so a bisection alone ends anywhere in
// a band of about ±15%. The staircase after it averages ten tosses: it
// steps up 3% after a pass and down three steps after a failure, so it
// settles where three probes in four pass, and the knee is the
// geometric mean of its rates. That knee is confirmed by a further
// probe; while the confirmation fails, the knee steps down 3% and is
// confirmed again, so a knee whose confirmation failed is never
// reported.
func kneeSearch(start float64, probeAt func(float64) (probe, error), log func(string, ...any)) (kneeResult, error) {
	var kr kneeResult
	run := func(rate float64) (bool, error) {
		if len(kr.probes) >= kneeMaxProbes {
			return false, fmt.Errorf("knee search exceeded %d probes", kneeMaxProbes)
		}
		pr, err := probeAt(rate)
		if err != nil {
			return false, err
		}
		kr.probes = append(kr.probes, pr)
		verdict := "pass"
		if !pr.pass {
			verdict = "fail: " + pr.why
		}
		log("  probe %9.0f q/s  p99 %8.3f ms  busy %.2f  %s\n", rate, tail(pr.phase.lats), pr.busy, verdict)
		return pr.pass, nil
	}
	lo, hi := 0.0, 0.0
	for rate := start; lo == 0 || hi == 0; {
		// While growing, a rate fails only when two probes in a row
		// fail: the staircase can climb a third above the bracket, not
		// the whole way from a stall at half the knee.
		ok, err := run(rate)
		if err == nil && !ok {
			ok, err = run(rate)
		}
		if err != nil {
			return kr, err
		}
		switch {
		case ok:
			lo, rate = rate, rate*kneeStep
		case lo == 0:
			hi, rate = rate, rate/kneeStep // the start rate failed: walk down
		default:
			hi = rate
		}
	}
	for hi/lo > kneeResolution {
		mid := math.Sqrt(lo * hi)
		ok, err := run(mid)
		if err != nil {
			return kr, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	var logSum float64
	for i, rate := 0, lo; i < stairProbes; i++ {
		ok, err := run(rate)
		if err != nil {
			return kr, err
		}
		logSum += math.Log(rate)
		if ok {
			rate *= kneeResolution
		} else {
			rate /= kneeResolution * kneeResolution * kneeResolution
		}
	}
	for knee := math.Exp(logSum / stairProbes); ; knee /= kneeResolution {
		ok, err := run(knee)
		if err != nil {
			return kr, err
		}
		if ok {
			kr.qps = knee
			kr.busy = kr.probes[len(kr.probes)-1].busy
			return kr, nil
		}
	}
}

// perCore divides a rate by the cores the servers could use.
func perCore(qps float64) float64 { return qps / float64(runtime.GOMAXPROCS(0)) }
