package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
)

// stack is one booted serving system: a saved container, its opened
// generation behind one HotServer per shard, a loopback shard group and
// the cluster client in front of it.
type stack struct {
	w    workload
	in   *inputs
	tr   *tracer
	path string

	mapped  *schemeio.Mapped // current generation's mapping (mapped workloads)
	g       *graph.Graph     // current served graph
	heapSch *table.Scheme    // current served scheme (heap workloads)
	hots    []*serve.HotServer
	group   *netserve.Group
	cluster *netserve.Cluster

	// Churn control plane: the build graph, its APSP and the scheme
	// repaired in place every cycle.
	ctlG    *graph.Graph
	ctlAPSP *shortest.APSP
	ctlSch  *table.Scheme
	gen     uint64

	fileBytes int64
}

// setup runs one lifecycle on a clone of g0 — build, encode, write and
// fsync, open, oracle, boot, and the first batch answered over TCP —
// and returns the booted stack, the lifecycle's wall time and the first
// batch's answers for the deferred reference check.
func setup(w workload, g0 *graph.Graph, in *inputs, seed uint64, dir string, idx int, tr *tracer) (*stack, time.Duration, []serve.Result, error) {
	g := g0.Clone()
	runtime.GC() // the previous set-up's garbage is not this one's cost
	st := &stack{w: w, in: in, tr: tr, path: filepath.Join(dir, fmt.Sprintf("scheme-%d.rsf", idx)), gen: 1}
	var key, rootStart int64
	if tr != nil {
		key, rootStart = tr.root(), tr.now()
	}
	start := time.Now()

	var built routing.Scheme
	var apsp *shortest.APSP
	var err error
	if w.landmark {
		err = tr.timed(kLandmarkBuild, key, func() error {
			built, err = landmark.NewStreamed(g, landmark.Options{Seed: seed}, 0)
			return err
		})
	} else {
		tr.timed(kAPSP, key, func() error { apsp = shortest.NewAPSPParallel(g, 0); return nil })
		err = tr.timed(kTableBuild, key, func() error {
			built, err = table.New(g, apsp, table.MinPort)
			return err
		})
	}
	if err != nil {
		return nil, 0, nil, fmt.Errorf("build: %w", err)
	}
	var enc *schemeio.Encoded
	if err := tr.timed(kEncode, key, func() error { enc, err = schemeio.Encode(g, built); return err }); err != nil {
		return nil, 0, nil, fmt.Errorf("encode: %w", err)
	}
	if err := tr.timed(kWrite, key, func() error { return writeContainer(st.path, g, enc) }); err != nil {
		return nil, 0, nil, err
	}
	st.fileBytes = int64(len(enc.Bytes))
	enc = nil
	if w.kills > 0 {
		st.ctlG, st.ctlAPSP, st.ctlSch = g, apsp, built.(*table.Scheme)
	}
	built, apsp = nil, nil

	if err := tr.timed(kOpen, key, st.open); err != nil {
		st.close()
		return nil, 0, nil, err
	}
	var srcs []shortest.DistanceSource
	if err := tr.timed(kAPSP, key, func() error { srcs = st.oracles(st.g); return nil }); err != nil {
		st.close()
		return nil, 0, nil, err
	}
	if err := tr.timed(kBoot, key, func() error { return st.boot(srcs) }); err != nil {
		st.close()
		return nil, 0, nil, fmt.Errorf("boot: %w", err)
	}
	first := st.call(key, in.first, nil)
	dur := time.Since(start)
	if tr != nil {
		tr.add(span{kind: kSetup, key: key, aux: -1, start: rootStart, end: tr.now()})
	}
	for i, r := range first {
		if r.Err != nil {
			st.close()
			return nil, 0, nil, fmt.Errorf("first batch query %d: %w", i, r.Err)
		}
	}
	if st.mapped != nil {
		if err := st.mapped.Verify(); err != nil {
			st.close()
			return nil, 0, nil, fmt.Errorf("verify: %w", err)
		}
	}
	return st, dur, first, nil
}

// writeContainer saves the v2 container and makes it durable.
func writeContainer(path string, g *graph.Graph, enc *schemeio.Encoded) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := schemeio.WriteFileV2Encoded(f, g, enc); err != nil {
		f.Close()
		return fmt.Errorf("write container: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync container: %w", err)
	}
	return f.Close()
}

// open loads the saved container as the served generation.
func (st *stack) open() error {
	if !st.w.heap {
		m, err := schemeio.OpenMapped(st.path)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		st.mapped, st.g = m, m.Graph()
		return nil
	}
	f, err := os.Open(st.path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, s, err := schemeio.ReadFile(f)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	ts, ok := s.(*table.Scheme)
	if !ok {
		return fmt.Errorf("read: scheme is %T, want a heap table scheme", s)
	}
	st.g, st.heapSch = g, ts
	return nil
}

func (st *stack) scheme() routing.Scheme {
	if st.mapped != nil {
		return st.mapped.Scheme()
	}
	return st.heapSch
}

// oracles returns each shard's stretch oracle over g: nil without
// stretch queries, a per-shard streaming source, or one shared dense
// table.
func (st *stack) oracles(g *graph.Graph) []shortest.DistanceSource {
	srcs := make([]shortest.DistanceSource, st.w.shards)
	if !st.w.hasStretch() {
		return srcs
	}
	var dense shortest.DistanceSource
	if !st.w.stream {
		dense = shortest.NewAPSPParallel(g, 0)
	}
	for i := range srcs {
		if st.w.stream {
			srcs[i] = shortest.NewStreamSource(g)
		} else {
			srcs[i] = dense
		}
		if st.tr != nil {
			srcs[i] = wrapSource(st.tr, i, srcs[i])
		}
	}
	return srcs
}

func (st *stack) boot(srcs []shortest.DistanceSource) error {
	sch := st.scheme()
	for i := 0; i < st.w.shards; i++ {
		st.hots = append(st.hots, serve.NewHot(serve.New(st.g, sch, srcs[i], serve.Options{})))
	}
	group, err := netserve.ListenGroupInto(st.w.shards, func(i int) netserve.BatchHandlerInto {
		hot := st.hots[i]
		var h netserve.BatchHandlerInto = func(qs []serve.Query, out []serve.Result) []serve.Result {
			rs, _ := hot.ServeBatchInto(qs, out)
			return rs
		}
		if st.w.wrap != nil {
			h = st.w.wrap(i, h)
		}
		if st.tr != nil {
			h = tracedHandler(st.tr, i, h)
		}
		return h
	}, netserve.Options{})
	if err != nil {
		return err
	}
	st.group = group
	cluster, err := netserve.DialCluster(group.Addrs(), st.g.Order(), netserve.ClusterOptions{})
	if err != nil {
		return err
	}
	st.cluster = cluster
	return nil
}

// call sends batch id through the cluster, under a netserve.cluster
// span in tree key when tracing.
func (st *stack) call(key int64, id int, out []serve.Result) []serve.Result {
	qs := st.in.sets[id]
	if st.tr == nil {
		return st.cluster.ServeBatchInto(qs, out)
	}
	s := span{kind: kCluster, key: key, aux: int32(id), n: int32(len(qs)), start: st.tr.now()}
	out = st.cluster.ServeBatchInto(qs, out)
	s.end = st.tr.now()
	st.tr.add(s)
	return out
}

// close stops the cluster and the shards and releases the container.
// It is safe to call more than once.
func (st *stack) close() {
	if st.cluster != nil {
		st.cluster.Close()
		st.cluster = nil
	}
	if st.group != nil {
		st.group.Close() // waits for every connection goroutine
		st.group = nil
	}
	if st.mapped != nil {
		st.mapped.Close()
		st.mapped = nil
	}
	os.Remove(st.path)
}

// verify sends every pool batch through the cluster, one at a time,
// and compares the answers with ref.
func (st *stack) verify(ref [][]serve.Result) error {
	var key, rootStart int64
	if st.tr != nil {
		key, rootStart = st.tr.root(), st.tr.now()
	}
	for id := 0; id < st.in.pool; id++ {
		if err := checkBatch(st.call(key, id, nil), ref[id]); err != nil {
			return fmt.Errorf("batch %d: %w", id, err)
		}
	}
	if st.tr != nil {
		st.tr.add(span{kind: kCheck, key: key, aux: -1, start: rootStart, end: st.tr.now()})
	}
	return nil
}

// swapStats are the duration, the steal share and the per-layer counts
// of one generation change.
type swapStats struct {
	dur            time.Duration
	steal          float64
	dirty, changed int
	deltaBytes     int
}

// timeSwap fills in a swap's duration and steal share from a sample
// taken when it started.
func (ss *swapStats) timeSwap(start rtSample) {
	end := sampleRuntime()
	ss.dur, ss.steal = end.at.Sub(start.at), stealShare(start, end)
}

// reload installs a fresh generation opened from the saved container
// and decoded in full on every shard, then answers check batch id on
// it.
func (st *stack) reload(id int) (swapStats, []serve.Result, error) {
	runtime.GC()
	var key, rootStart int64
	if st.tr != nil {
		key, rootStart = st.tr.root(), st.tr.now()
	}
	start := sampleRuntime()
	var m *schemeio.Mapped
	err := st.tr.timed(kOpen, key, func() error {
		var err error
		m, err = schemeio.OpenMapped(st.path)
		return err
	})
	if err != nil {
		return swapStats{}, nil, fmt.Errorf("reload: %w", err)
	}
	// The new generation is decoded in full before it goes live, so
	// no batch after the swap pays first-touch decode.
	if err := st.tr.timed(kVerify, key, m.Verify); err != nil {
		m.Close()
		return swapStats{}, nil, fmt.Errorf("reload verify: %w", err)
	}
	var srcs []shortest.DistanceSource
	st.tr.timed(kAPSP, key, func() error { srcs = st.oracles(m.Graph()); return nil })
	for i, hot := range st.hots {
		sv := serve.New(m.Graph(), m.Scheme(), srcs[i], serve.Options{})
		st.tr.timed(kSwapCall, key, func() error { hot.Swap(sv); return nil })
	}
	out := st.call(key, id, nil)
	var ss swapStats
	ss.timeSwap(start)
	if st.tr != nil {
		st.tr.add(span{kind: kSwapRoot, key: key, aux: -1, start: rootStart, end: st.tr.now()})
	}
	old := st.mapped
	st.mapped, st.g = m, m.Graph()
	if old != nil {
		old.Close()
	}
	return ss, out, nil
}

// churnCycle kills w.kills edges on the control plane, repairs the
// APSP rows and table rows they dirtied, ships the repair as a delta to
// the serving copy, swaps the patched generation in on the shard and
// answers check batch id on it. It returns the answers with the
// control plane's reference answers for the same batch.
func (st *stack) churnCycle(cycle int, seed uint64, id int) (swapStats, []serve.Result, []serve.Result, error) {
	var key, rootStart int64
	if st.tr != nil {
		key, rootStart = st.tr.root(), st.tr.now()
	}
	var ss swapStats
	start := sampleRuntime()
	var plan *faults.Plan
	err := st.tr.timed(kPlan, key, func() error {
		var err error
		plan, err = faults.NewPlan(st.ctlG, faults.Options{
			Mode: faults.KillEdges, Count: st.w.kills, Seed: seed + uint64(cycle)*0x9e37, KeepConnected: true,
		})
		if err == nil {
			plan.Apply(st.ctlG)
		}
		return err
	})
	if err != nil {
		return ss, nil, nil, fmt.Errorf("fault plan: %w", err)
	}
	var dirty, changed []graph.NodeID
	st.tr.timed(kDirty, key, func() error { dirty = faults.DirtyRoots(st.ctlAPSP, plan.Edges); return nil })
	st.tr.timed(kRefresh, key, func() error { st.ctlAPSP.RefreshRows(st.ctlG, dirty); return nil })
	err = st.tr.timed(kRepair, key, func() error {
		var err error
		changed, err = st.ctlSch.Repair(st.ctlAPSP, dirty, table.MinPort)
		return err
	})
	if err != nil {
		return ss, nil, nil, fmt.Errorf("repair: %w", err)
	}
	var blob []byte
	err = st.tr.timed(kDeltaEncode, key, func() error {
		d, err := schemeio.NewDelta(st.gen, plan.Edges, st.ctlSch, changed)
		if err != nil {
			return err
		}
		blob, err = schemeio.EncodeDelta(st.ctlG, d)
		return err
	})
	if err != nil {
		return ss, nil, nil, fmt.Errorf("delta: %w", err)
	}
	var g *graph.Graph
	var sch *table.Scheme
	err = st.tr.timed(kDeltaApply, key, func() error {
		d, err := schemeio.DecodeDelta(blob, st.g)
		if err != nil {
			return err
		}
		g, sch, err = schemeio.ApplyDelta(st.g, st.heapSch, d)
		return err
	})
	if err != nil {
		return ss, nil, nil, fmt.Errorf("apply delta: %w", err)
	}
	sv := serve.New(g, sch, nil, serve.Options{})
	st.tr.timed(kSwapCall, key, func() error { st.hots[0].Swap(sv); return nil })
	st.g, st.heapSch = g, sch
	st.gen++
	out := st.call(key, id, nil)
	ss.timeSwap(start)
	if st.tr != nil {
		st.tr.add(span{kind: kSwapRoot, key: key, aux: -1, start: rootStart, end: st.tr.now()})
	}
	ss.dirty, ss.changed, ss.deltaBytes = len(dirty), len(changed), len(blob)
	ref := serve.New(st.ctlG, st.ctlSch, nil, serve.Options{Workers: 1}).ServeBatch(st.in.sets[id])
	return ss, out, ref, nil
}
