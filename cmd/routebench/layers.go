package main

// layerMetrics reads the per-layer ledger off a traced pass: the
// fixed segment's batch trees for the serving layers, the set-up trees
// for the build pipeline, the swap trees for repair and delta shipping,
// and runtime/metrics across the fixed segment's window.
func layerMetrics(w workload, tr *tracer, t *tree, seg *segment, swaps []swapStats, knee kneeResult) map[string]float64 {
	var windows [][2]int64
	var window float64
	for _, wd := range seg.windows {
		windows = append(windows, [2]int64{tr.at(wd[0]), tr.at(wd[1])})
		window += float64(wd[1].Sub(wd[0]))
	}
	inSegment := func(at int64) bool {
		for _, wd := range windows {
			if at >= wd[0] && at < wd[1] {
				return true
			}
		}
		return false
	}
	var rtt, serveDur, rowDur []float64
	var queries, rows int
	var batchDur, batchSelf, clusterDur, clusterSelf, serveSum, rowSum float64
	for i, s := range t.spans {
		if s.kind != kBatch || !inSegment(s.start) {
			continue
		}
		batchDur += float64(s.dur())
		batchSelf += float64(t.self[i])
		queries += int(s.n)
		for _, c := range t.children[i] {
			cs := t.spans[c]
			if cs.kind != kCluster {
				continue
			}
			rtt = append(rtt, float64(cs.dur())/1e3)
			clusterDur += float64(cs.dur())
			clusterSelf += float64(t.self[c])
			for _, sv := range t.children[c] {
				serveDur = append(serveDur, float64(t.spans[sv].dur())/1e3)
				serveSum += float64(t.spans[sv].dur())
				for _, r := range t.children[sv] {
					rows++
					rowDur = append(rowDur, float64(t.spans[r].dur())/1e3)
					rowSum += float64(t.spans[r].dur())
				}
			}
		}
	}
	rtt, serveDur, rowDur = sortedCopy(rtt), sortedCopy(serveDur), sortedCopy(rowDur)
	m := map[string]float64{
		"client.lat_p99_ms":            seg.p(0.99),
		"netserve.rtt_p50_us":          quantile(rtt, 0.5),
		"netserve.rtt_p99_us":          quantile(rtt, 0.99),
		"netserve.self_share":          ratio(clusterSelf, clusterDur),
		"netserve.refusals":            float64(seg.refused),
		"serve.batch_p50_us":           quantile(serveDur, 0.5),
		"serve.batch_p99_us":           quantile(serveDur, 0.99),
		"serve.busy_share":             ratio(serveSum, window*float64(w.shards)),
		"routing.hops_per_query":       ratio(float64(seg.hops), float64(seg.completed)),
		"shortest.row_calls_per_query": ratio(float64(rows), float64(queries)),
		"shortest.row_p50_us":          quantile(rowDur, 0.5),
		"shortest.row_p99_us":          quantile(rowDur, 0.99),
		"shortest.row_self_share":      ratio(rowSum, serveSum),
		"ledger.residual_share":        ratio(batchSelf, batchDur),
		"gen.late_p99_ms":              quantile(seg.late, 0.99),
		"gen.queue_wait_p99_ms":        quantile(seg.waits, 0.99),
		"gen.invalid_probes":           float64(knee.invalid()),
		"knee_qps_per_core":            perCore(knee.qps),
		"runtime.allocs_per_query":     ratio(float64(seg.allocs), float64(seg.completed)),
		"runtime.gc_cycles_per_s":      float64(seg.gcs) / seg.wall.Seconds(),
		"runtime.gc_pause_p99_us":      seg.pauseP99(),
		"runtime.cpu_busy_share":       knee.busy,
		"host.steal_share":             seg.stealShare(),
	}

	// Set-up ledger: per-kind time summed within each set-up, median
	// over set-ups.
	perSetup := map[spanKind][]float64{}
	var firstTouch []float64
	var setupDur, setupSelf float64
	for i, s := range t.spans {
		if s.kind != kSetup {
			continue
		}
		setupDur += float64(s.dur())
		setupSelf += float64(t.self[i])
		sum := map[spanKind]float64{}
		for _, c := range t.children[i] {
			cs := t.spans[c]
			sum[cs.kind] += float64(cs.dur()) / 1e6
			if cs.kind == kCluster {
				// The first batch decodes every stripe it touches: its
				// slowest shard's handler time is the first-touch cost.
				var slowest float64
				for _, sv := range t.children[c] {
					if d := float64(t.spans[sv].dur()) / 1e6; d > slowest {
						slowest = d
					}
				}
				firstTouch = append(firstTouch, slowest)
			}
		}
		for _, k := range []spanKind{kAPSP, kTableBuild, kLandmarkBuild, kEncode, kWrite, kOpen, kBoot} {
			perSetup[k] = append(perSetup[k], sum[k])
		}
	}
	m["shortest.apsp_ms"] = median(perSetup[kAPSP])
	m["table.build_ms"] = median(perSetup[kTableBuild])
	m["landmark.build_ms"] = median(perSetup[kLandmarkBuild])
	m["schemeio.encode_ms"] = median(perSetup[kEncode])
	m["schemeio.write_ms"] = median(perSetup[kWrite])
	m["schemeio.open_ms"] = median(perSetup[kOpen])
	m["netserve.boot_ms"] = median(perSetup[kBoot])
	m["schemeio.first_touch_ms"] = median(firstTouch)
	m["ledger.setup_residual_share"] = ratio(setupSelf, setupDur)

	// Generation changes: per-kind medians over the swap trees.
	perSwap := map[spanKind][]float64{}
	for i, s := range t.spans {
		if s.kind != kSwapRoot {
			continue
		}
		for _, c := range t.children[i] {
			cs := t.spans[c]
			perSwap[cs.kind] = append(perSwap[cs.kind], float64(cs.dur())/1e6)
		}
	}
	m["serve.swap_us"] = 1e3 * median(perSwap[kSwapCall])
	m["shortest.refresh_ms"] = median(perSwap[kRefresh])
	m["table.repair_ms"] = median(perSwap[kRepair])
	m["schemeio.delta_encode_ms"] = median(perSwap[kDeltaEncode])
	m["schemeio.delta_apply_ms"] = median(perSwap[kDeltaApply])
	var dirty, changed, bytes []float64
	var sumDirty, sumChanged float64
	for _, ss := range swaps {
		dirty = append(dirty, float64(ss.dirty))
		changed = append(changed, float64(ss.changed))
		bytes = append(bytes, float64(ss.deltaBytes))
		sumDirty += float64(ss.dirty)
		sumChanged += float64(ss.changed)
	}
	m["faults.dirty_roots"] = median(dirty)
	m["faults.changed_rows"] = median(changed)
	m["faults.useful_ratio"] = ratio(sumChanged, sumDirty)
	m["schemeio.delta_bytes"] = median(bytes)
	return m
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
