package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/coding"
	"repro/internal/gen"
	"repro/internal/netserve"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

// pass is one measured pass over a workload: its end-to-end metrics,
// and with tracing its per-layer metrics and linked span tree.
type pass struct {
	e2e               map[string]float64
	layer             map[string]float64
	attempted, failed int64
	tree              *tree
	dropped           int64
}

// runPass runs a workload's phases once: set up w.setups times,
// measure the fixed-rate segment (with churn when w.kills > 0) while
// changing generations, and, when traced, search the knee. Every
// answer is checked; a wrong one is an error.
func runPass(w workload, seed uint64, lens lengths, traced bool, dir string, logf func(string, ...any)) (*pass, error) {
	g0, err := gen.ByName("random", w.n, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	in := makeInputs(w, seed, lens.slices)
	var tr *tracer
	if traced {
		tr = newTracer(spanCap)
	}
	p := &pass{e2e: map[string]float64{}}

	var setupDurs []float64
	var firsts [][]serve.Result
	var st *stack
	for i := 0; i < w.setups; i++ {
		s, dur, first, err := setup(w, g0, in, seed, dir, i, tr)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setupDurs = append(setupDurs, dur.Seconds())
		firsts = append(firsts, first)
		p.attempted += int64(len(first))
		if i < w.setups-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	p.e2e["setup_s"] = median(setupDurs)
	p.e2e["heap_mb"] = liveHeapMB()
	logf("  setup %.3f s (median of %.3f s), live heap %.1f MB\n", p.e2e["setup_s"], setupDurs, p.e2e["heap_mb"])

	ref, err := reference(w, st.path, in)
	if err != nil {
		return nil, err
	}
	for i, first := range firsts {
		if err := checkBatch(first, ref[in.first]); err != nil {
			return nil, fmt.Errorf("setup %d first batch: %w", i, err)
		}
	}
	baseRef := ref

	// The fixed-rate segment runs in slices. Every slice of a churn run
	// carries a churn cycle starting with its window; otherwise every
	// w.swapEvery-th slice is followed by a reload.
	seg := &segment{}
	var swaps []swapStats
	for k := 0; k < lens.slices; k++ {
		id := in.checks + k
		var ph *phaseResult
		if w.kills > 0 {
			var cycleErr error
			// Answers change generation mid-slice, so the load is checked
			// for errors only; the check batch and the reference below pin
			// every generation.
			ph = openLoop(st, float64(w.fixedQPS), lens.warm, lens.slice, 5*time.Second, nil, func(time.Time) {
				ss, out, want, err := st.churnCycle(k, seed, id)
				if err == nil {
					err = checkBatch(out, want)
				}
				if err != nil {
					cycleErr = fmt.Errorf("churn cycle %d: %w", k, err)
					return
				}
				swaps = append(swaps, ss)
			})
			if cycleErr != nil {
				return nil, cycleErr
			}
			ref = serveAll(serve.New(st.ctlG, st.ctlSch, nil, serve.Options{Workers: 1}), in)
		} else {
			ph = openLoop(st, float64(w.fixedQPS), lens.warm, lens.slice, 5*time.Second, ref, nil)
		}
		if ph.mismatched > 0 {
			return nil, fmt.Errorf("fixed segment: wrong answer: %s", ph.firstBad)
		}
		if ph.completed < ph.offered {
			return nil, fmt.Errorf("fixed segment at %d q/s: %d of %d queries answered (%s)", w.fixedQPS, ph.completed, ph.offered, ph.firstBad)
		}
		seg.add(ph)
		logf("  slice %d: p50 %.3f ms, p75 %.3f ms, p90 %.3f ms, p99 %.3f ms, %.2f µs CPU/query, steal %.3f\n", k, ph.p(0.5), ph.p(0.75), ph.p(0.9), ph.p(0.99),
			float64(ph.cpu.Microseconds())/float64(ph.answered), ph.steal())
		if w.kills == 0 && (k+1)%w.swapEvery == 0 {
			ss, out, err := st.reload(id)
			if err == nil {
				err = checkBatch(out, ref[id])
			}
			if err != nil {
				return nil, fmt.Errorf("reload %d: %w", k, err)
			}
			swaps = append(swaps, ss)
		}
	}

	// The knee search is part of the traced pass only: its run-to-run
	// spread is too wide for a regression bound (see README.md).
	var knee kneeResult
	if traced && w.knee {
		knee, err = kneeSearch(float64(w.fixedQPS), func(rate float64) (probe, error) {
			return runProbe(st, lens, rate, ref, logf)
		}, logf)
		if err != nil {
			return nil, err
		}
	}
	if w.kills > 0 {
		// Every generation was checked batch by batch; now the whole
		// pool must match a from-scratch build on the faulted graph.
		rebuilt, err := rebuiltReference(st, in)
		if err != nil {
			return nil, err
		}
		if err := st.verify(rebuilt); err != nil {
			return nil, fmt.Errorf("after churn: %w", err)
		}
	}

	p.attempted += seg.offered + int64(len(swaps)*w.batch)
	p.failed += seg.failed + seg.refused
	for _, pr := range knee.probes {
		if pr.pass {
			p.attempted += pr.phase.offered
		}
	}
	// Latency, CPU and swap time are read off the slices and swaps the
	// hypervisor left alone.
	sl := seg.steadySlices()
	swapSteal := make([]float64, len(swaps))
	for i, ss := range swaps {
		swapSteal[i] = ss.steal
	}
	var swapDurs []float64
	for _, i := range steady(swapSteal) {
		swapDurs = append(swapDurs, swaps[i].dur.Seconds())
	}
	p.e2e["lat_p50_ms"] = sl.p(0.5)
	p.e2e["lat_p75_ms"] = sl.p(0.75)
	p.e2e["swap_s"] = median(swapDurs)
	p.e2e["cpu_us_per_query"] = float64(sl.cpu.Nanoseconds()) / 1e3 / float64(sl.answered)
	logf("  fixed %d q/s, %d slices of %v: p50 %.3f ms, p75 %.3f ms, %.2f µs CPU/query over the %d batches of the steady slices; median steal %.3f\n",
		w.fixedQPS, lens.slices, lens.slice, p.e2e["lat_p50_ms"], p.e2e["lat_p75_ms"], p.e2e["cpu_us_per_query"], len(sl.lats), seg.stealShare())
	logf("  swap %.4f s (median of %d steady of %d)\n", p.e2e["swap_s"], len(swapDurs), len(swaps))
	if knee.qps > 0 {
		logf("  knee %.0f q/s (%.0f per core), cores %.0f%% busy at the knee\n", knee.qps, perCore(knee.qps), 100*knee.busy)
	}

	if !traced {
		return p, nil
	}
	st.close() // every recording goroutine has now ended
	p.tree = link(tr.spans(), in.batchOf)
	p.dropped = tr.dropped()
	p.layer = layerMetrics(w, tr, p.tree, seg, swaps, knee)
	for k, v := range inputReport(w, in, baseRef) {
		p.layer[k] = v
	}
	wire, err := wireMetrics(w, in, baseRef)
	if err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	for k, v := range wire {
		p.layer[k] = v
	}
	p.layer["schemeio.file_bytes"] = float64(st.fileBytes)
	p.layer["trace.dropped"] = float64(p.dropped)
	p.layer["trace.unlinked"] = float64(p.tree.unlinked)
	return p, nil
}

// reference answers every query set serially on a heap-decoded
// serve.Server over the saved container — no TCP, no mapping — with a
// streaming oracle.
func reference(w workload, path string, in *inputs) ([][]serve.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, s, err := schemeio.ReadFile(f)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var src shortest.DistanceSource
	if w.hasStretch() {
		src = shortest.NewStreamSource(g)
	}
	return serveAll(serve.New(g, s, src, serve.Options{Workers: 1}), in), nil
}

// rebuiltReference is the reference after churn: tables built from
// scratch on a clone of the faulted control-plane graph.
func rebuiltReference(st *stack, in *inputs) ([][]serve.Result, error) {
	g := st.ctlG.Clone()
	sch, err := table.New(g, shortest.NewAPSPParallel(g, 0), table.MinPort)
	if err != nil {
		return nil, fmt.Errorf("rebuild on faulted graph: %w", err)
	}
	return serveAll(serve.New(g, sch, nil, serve.Options{Workers: 1}), in), nil
}

func serveAll(sv *serve.Server, in *inputs) [][]serve.Result {
	ref := make([][]serve.Result, len(in.sets))
	for i, qs := range in.sets {
		ref[i] = sv.ServeBatch(qs)
	}
	return ref
}

func checkBatch(got, want []serve.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers for %d queries", len(got), len(want))
	}
	for i := range got {
		if !sameResult(got[i], want[i]) {
			return fmt.Errorf("wrong answer to query %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// wireMetrics replays the pool's shard sub-batches through the
// netserve codec: bytes per query each way and codec time per query.
func wireMetrics(w workload, in *inputs, ref [][]serve.Result) (map[string]float64, error) {
	m := netserve.ShardMap{N: w.n, K: w.shards}
	type sub struct {
		qs []serve.Query
		rs []serve.Result
	}
	var subs []sub
	for b := 0; b < in.pool; b++ {
		per := make([]sub, w.shards)
		for i, q := range in.sets[b] {
			s := m.Owner(q.U)
			per[s].qs = append(per[s].qs, q)
			per[s].rs = append(per[s].rs, ref[b][i])
		}
		for _, s := range per {
			if len(s.qs) > 0 {
				subs = append(subs, s)
			}
		}
	}
	var queries, reqBytes, respBytes int
	for _, s := range subs {
		req, err := netserve.EncodeRequest(s.qs)
		if err != nil {
			return nil, err
		}
		resp, err := netserve.EncodeResponse(s.rs)
		if err != nil {
			return nil, err
		}
		queries += len(s.qs)
		reqBytes += len(req)
		respBytes += len(resp)
	}
	// Time whole replays of the pool until 50 ms have passed. Every
	// sub-batch encoded above, so the calls below cannot fail.
	wr := coding.NewBitWriter()
	var scratch []serve.Query
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, s := range subs {
			wr.Reset()
			_ = netserve.AppendRequest(wr, s.qs)
			scratch, _ = netserve.DecodeRequestInto(wr.Bytes(), scratch)
			wr.Reset()
			_ = netserve.AppendResponse(wr, s.rs)
			_, _ = netserve.DecodeResponse(wr.Bytes())
		}
		reps++
	}
	elapsed := time.Since(start)
	return map[string]float64{
		"netserve.req_bytes_per_query":  float64(reqBytes) / float64(queries),
		"netserve.resp_bytes_per_query": float64(respBytes) / float64(queries),
		"netserve.codec_ns_per_query":   float64(elapsed.Nanoseconds()) / float64(reps*queries),
	}, nil
}
