package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// workload is one serving configuration. Every workload runs the same
// phases (setups, fixed-rate segment, generation swaps, knee search);
// the fields choose what each phase stresses.
type workload struct {
	name string
	n    int
	// landmark selects a landmark.NewStreamed scheme; tables otherwise.
	landmark bool
	// heap serves the scheme schemeio.ReadFile decodes (a heap
	// *table.Scheme that ApplyDelta can patch) instead of OpenMapped's.
	heap   bool
	shards int
	// stream gives each shard its own scalar StreamSource oracle; a
	// dense APSP of the opened graph is shared otherwise. No oracle is
	// built when ops has no stretch.
	stream     bool
	ops        []serve.Op
	zipf       bool // sources Zipf(1.1) over a seeded permutation; uniform otherwise
	batch      int
	clients    int
	setups     int
	firstBatch int
	// knee makes the traced pass search the highest rate whose p99 is
	// within p99Bound.
	knee     bool
	p99Bound time.Duration
	// fixedQPS is the fixed segment's rate: at most a third of the knee,
	// so a slower machine does not push the segment into queueing, and
	// low enough that one client's batches never overlap — near the rate
	// where they start to, latency flips between an overlapped and a
	// free mode from slice to slice, and its median with it.
	fixedQPS int
	// swapEvery is the number of fixed-rate slices per reload.
	swapEvery int
	// kills > 0 makes the fixed segment a churn run: every cycle kills
	// that many edges, repairs, ships a delta and swaps it in. With
	// kills == 0 the swaps are reloads of the saved container.
	kills int
	// wrap, when set, wraps every shard handler; tests use it to plant
	// a wrong answer.
	wrap func(shard int, h netserve.BatchHandlerInto) netserve.BatchHandlerInto
}

var mix = []serve.Op{serve.OpRoute, serve.OpLen, serve.OpStretch}

// workloads are the benchmark's four configurations, in run order.
var workloads = []workload{
	{
		// Each hop is one table lookup, so per-batch frame, wire and
		// syscall cost is most of the round trip: netserve and serve
		// changes show here.
		name: "serve-tables", n: 2048, shards: 1, ops: mix,
		batch: 32, clients: 2, setups: 3, firstBatch: 256,
		knee: true, p99Bound: 5 * time.Millisecond, fixedQPS: 100000, swapEvery: 2,
	},
	{
		// Each stretch query costs one BFS row unless its source
		// repeats, so the kernel and row reuse dominate and the 2-shard
		// gather exposes the slowest shard.
		name: "serve-landmark-stream", n: 4096, landmark: true, shards: 2, stream: true,
		ops: []serve.Op{serve.OpStretch}, zipf: true,
		batch: 16, clients: 1, setups: 3, firstBatch: 256,
		knee: true, p99Bound: 50 * time.Millisecond, fixedQPS: 3000, swapEvery: 1,
	},
	{
		// Build, codec and container work dominate set-up at n=4096,
		// where table.New and first-touch decode are seconds long. No
		// stretch queries, so no n² oracle is built beside the scheme. A
		// reload decodes all 4096 rows (over a second), so only every
		// fourth slice is followed by one.
		name: "lifecycle-tables", n: 4096, shards: 1,
		ops:   []serve.Op{serve.OpRoute, serve.OpLen},
		batch: 32, clients: 2, setups: 3, firstBatch: 256,
		p99Bound: 5 * time.Millisecond, fixedQPS: 100000, swapEvery: 4,
	},
	{
		// The serve-tables read path with fault repair, delta shipping
		// and hot swaps running beside it.
		name: "churn-tables", n: 2048, heap: true, shards: 1,
		ops:   []serve.Op{serve.OpRoute, serve.OpLen},
		batch: 32, clients: 1, setups: 3, firstBatch: 256,
		p99Bound: 5 * time.Millisecond, fixedQPS: 50000, swapEvery: 1, kills: 2,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) hasStretch() bool {
	for _, op := range w.ops {
		if op == serve.OpStretch {
			return true
		}
	}
	return false
}

// maxClients and maxConns cap the generator: two client goroutines and
// two TCP connections in total, so the servers, not the generator,
// own the cores.
const (
	maxClients = 2
	maxConns   = 2
)

// validate refuses configurations where the generator could take the
// machine from the servers.
func (w workload) validate() error {
	nproc := runtime.NumCPU()
	if w.clients < 1 || w.clients > maxClients || w.clients > nproc {
		return fmt.Errorf("%s: %d client goroutines; need 1..min(%d, nproc=%d)", w.name, w.clients, maxClients, nproc)
	}
	conns := w.clients * w.shards
	if w.kills > 0 {
		conns++ // the control loop's post-swap check batch
	}
	if conns > maxConns || conns > nproc {
		return fmt.Errorf("%s: %d connections; need at most min(%d, nproc=%d)", w.name, conns, maxConns, nproc)
	}
	if w.swapEvery < 1 {
		return fmt.Errorf("%s: swapEvery %d, need at least 1", w.name, w.swapEvery)
	}
	if _, err := netserve.NewShardMap(w.n, w.shards); err != nil {
		return err
	}
	return nil
}

// lengths are a run's phase durations.
type lengths struct {
	warm, probe, drain time.Duration // one knee probe
	slice              time.Duration // one slice of the fixed-rate segment
	slices             int           // slices; each carries one generation change
}

// lengthsFor gives the fixed-rate segment the run's seconds, in 16
// slices, and a knee probe a fortieth of them (a search takes about
// twenty probes).
func lengthsFor(seconds int) lengths {
	s := time.Duration(seconds) * time.Second
	probe := s / 40
	return lengths{warm: probe / 6, probe: probe, drain: probe / 3, slice: s / 16, slices: 16}
}

// inputs are a run's seeded queries. Batch ids index sets: the pool
// the load cycles through, then the set-up batch, then one check batch
// per swap. The (shard, first query) key of every sub-batch is unique
// over all of them, which is what links server spans to client batches.
type inputs struct {
	sets    [][]serve.Query
	pool    int             // sets[:pool] is the load pool
	first   int             // sets[first] is the set-up batch
	checks  int             // sets[checks:] are the swap check batches
	batchOf map[int64]int32 // sub-batch key → set
}

const poolBatches = 64

func makeInputs(w workload, seed uint64, swaps int) *inputs {
	r := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	n := w.n
	var zipfCDF []float64
	var perm []int
	if w.zipf {
		perm = r.Perm(n)
		zipfCDF = make([]float64, n)
		var sum float64
		for k := range zipfCDF {
			sum += 1 / math.Pow(float64(k+1), 1.1)
			zipfCDF[k] = sum
		}
		for k := range zipfCDF {
			zipfCDF[k] /= sum
		}
	}
	source := func() graph.NodeID {
		if !w.zipf {
			return graph.NodeID(r.Intn(n))
		}
		k := sort.SearchFloat64s(zipfCDF, r.Float64())
		if k >= n {
			k = n - 1
		}
		return graph.NodeID(perm[k])
	}
	m := netserve.ShardMap{N: n, K: w.shards}
	in := &inputs{pool: poolBatches, first: poolBatches, checks: poolBatches + 1, batchOf: map[int64]int32{}}
	sizes := make([]int, 0, poolBatches+1+swaps)
	for i := 0; i < poolBatches; i++ {
		sizes = append(sizes, w.batch)
	}
	sizes = append(sizes, w.firstBatch)
	for i := 0; i < swaps; i++ {
		sizes = append(sizes, w.batch)
	}
	for id, size := range sizes {
		for {
			qs := make([]serve.Query, size)
			for i := range qs {
				u := source()
				v := graph.NodeID(r.Intn(n))
				if u == v {
					v = graph.NodeID((int(v) + 1) % n)
				}
				qs[i] = serve.Query{Op: w.ops[i%len(w.ops)], U: u, V: v}
			}
			keys := subBatchKeys(m, qs)
			fresh := true
			for _, k := range keys {
				if _, dup := in.batchOf[k]; dup {
					fresh = false
				}
			}
			if !fresh {
				continue
			}
			for _, k := range keys {
				in.batchOf[k] = int32(id)
			}
			in.sets = append(in.sets, qs)
			break
		}
	}
	return in
}

// subBatchKeys returns the server-span key of each non-empty shard
// sub-batch of qs: the cluster sends a shard its queries in request
// order, so the first one is the first query that shard owns.
func subBatchKeys(m netserve.ShardMap, qs []serve.Query) []int64 {
	seen := make([]bool, m.K)
	var keys []int64
	for _, q := range qs {
		if s := m.Owner(q.U); !seen[s] {
			seen[s] = true
			keys = append(keys, queryKey(s, q))
		}
	}
	return keys
}

// inputReport describes the pool a workload serves: how often a source
// repeats within one shard's sub-batch (what row reuse could exploit),
// the stretch share, and the mean routed length of the reference
// answers.
func inputReport(w workload, in *inputs, ref [][]serve.Result) map[string]float64 {
	m := netserve.ShardMap{N: w.n, K: w.shards}
	var queries, repeats, stretch, lenSum int
	for b := 0; b < in.pool; b++ {
		seen := make(map[[2]int]bool)
		for i, q := range in.sets[b] {
			key := [2]int{m.Owner(q.U), int(q.U)}
			if seen[key] {
				repeats++
			}
			seen[key] = true
			if q.Op == serve.OpStretch {
				stretch++
			}
			lenSum += ref[b][i].Len
			queries++
		}
	}
	return map[string]float64{
		"input.src_repeat_share": float64(repeats) / float64(queries),
		"input.stretch_share":    float64(stretch) / float64(queries),
		"input.mean_route_len":   float64(lenSum) / float64(queries),
	}
}
