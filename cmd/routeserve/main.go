// Command routeserve builds or loads a persisted routing scheme and
// serves batched routing queries against it — the serving-shaped front
// end of the repository: construct once, persist with the schemeio wire
// codec, reload in milliseconds, answer queries concurrently.
//
// Usage:
//
//	routeserve -family random -n 256 -scheme tables -save s.rsf   # build + persist
//	routeserve -load s.rsf -queries q.txt                         # load + answer queries
//	echo "stretch 0 17" | routeserve -load s.rsf -queries -       # queries from stdin
//	routeserve -family tree -n 100 -scheme tree -queries -        # build ad hoc, no file
//	routeserve -load s.rsf -listen :9000                          # serve the wire protocol over TCP
//	routeserve -load s.rsf -listen :9000 -shards 4                # sharded loopback cluster behind one front
//	routeserve -family random -n 256 -scheme tables -kill 3 -deltaout p.rsd  # fault + incremental repair + patch
//	routeserve -load s.rsf -applydelta p.rsd -queries q.txt       # load generation g, serve generation g+1
//
// Queries are text lines `<op> <u> <v>` with op one of route, len,
// stretch; they are read in batches of -batch lines, each batch served
// over the worker pool of internal/serve (per-query errors annotate the
// output line; they never abort the stream). -distmode selects the
// oracle backend for stretch queries exactly as in routelab/memreq:
// dense precomputes the n^2 table, stream answers each stretch query by
// a bidirectional BFS between its endpoints (O(workers*n) resident
// memory). Answers are bit-identical to the serial routing package for
// both backends and every batch size and worker count.
//
// -kill injects a seeded fault before serving: it draws a deterministic
// plan (internal/faults; -killmode edges|vertices, -killseed, -killweight
// uniform|bydegree, connectivity-preserving unless -killanywhere) and
// applies it. Edge kills on -scheme tables take the incremental path —
// dirty-set refresh plus row repair, bit-identical to a rebuild (the
// faults conformance suite pins this) — and -deltaout writes the repair
// as a schemeio generation patch: the record a fault pipeline ships to
// serving shards instead of a full re-encoded scheme. Edge kills on
// -scheme landmark rebuild it (landmark.NewStreamed, same seed). Every
// other combination, and any fault that disconnects the graph (where
// -deltaout exits 2), serves the pre-fault scheme unrepaired, where
// broken routes answer with typed errors. -applydelta closes the loop
// on the serving side: load the generation-g container (-mmap too),
// decode + apply the patch (copy-on-write: only the stripes of patched
// routers are proven and rewritten), and serve generation g+1 — no
// rebuild, no full re-transfer.
//
// -listen serves the internal/netserve wire protocol over TCP: framed
// binary query batches with per-connection read/write deadlines
// (-deadline), an admission-control semaphore (-maxinflight) answering
// `overloaded` refusals instead of queueing, and graceful drain on
// SIGINT/SIGTERM. With -shards k > 1 the router ID space is
// partitioned across k shard servers on loopback ephemeral ports —
// each with its own distance backend — behind a scatter/gather front
// listening on -listen; answers are byte-identical to the in-process
// server at every shard count (the netserve conformance suite pins
// this). Serving load is measured by cmd/routebench, which drives the
// same cluster open loop and checks every answer.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/evaluate"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/routing"
	"repro/internal/scheme/landmark"
	"repro/internal/scheme/table"
	"repro/internal/schemeio"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func main() {
	family := flag.String("family", "random", "graph family when building: random|tree|torus|hypercube|complete|outerplanar|petersen")
	n := flag.Int("n", 128, "graph order when building (rounded as the family requires)")
	schemeName := flag.String("scheme", "tables", "scheme when building: tables|interval|landmark|ecube|tree")
	seed := flag.Uint64("seed", 1, "generator seed when building")
	save := flag.String("save", "", "persist the built scheme+graph to this file (schemeio container v2)")
	load := flag.String("load", "", "load scheme+graph from this file instead of building")
	mmap := flag.Bool("mmap", false, "with -load: memory-map the container and decode router payloads lazily on first touch")
	queries := flag.String("queries", "", "serve queries from this file ('-' = stdin); lines: route|len|stretch u v")
	batch := flag.Int("batch", 1024, "queries per served batch")
	workers := flag.Int("workers", 0, "worker pool size per batch (0 = all cores)")
	distmode := flag.String("distmode", "dense", "distance backend for stretch queries: dense|stream")
	listen := flag.String("listen", "", "serve the netserve wire protocol on this TCP address (host:port)")
	shards := flag.Int("shards", 1, "with -listen: partition the router ID space across this many serving shards")
	deadline := flag.Duration("deadline", 5*time.Second, "with -listen: per-connection read/write deadline and front-to-shard round-trip budget")
	maxInFlight := flag.Int("maxinflight", 64, "with -listen: admission-control cap on concurrent batches per server (excess gets an explicit overloaded refusal)")
	kill := flag.Int("kill", 0, "inject a seeded fault before serving: remove this many edges (or vertices with -killmode vertices)")
	killMode := flag.String("killmode", "edges", "with -kill: what the fault removes: edges|vertices")
	killSeed := flag.Uint64("killseed", 1, "with -kill: fault plan seed")
	killWeight := flag.String("killweight", "uniform", "with -kill: victim weighting: uniform|bydegree")
	killAnywhere := flag.Bool("killanywhere", false, "with -kill: allow plans that disconnect the graph (default keeps it connected)")
	deltaOut := flag.String("deltaout", "", "write the incremental repair as a generation patch to this file (needs -kill, -killmode edges, -scheme tables)")
	applyDelta := flag.String("applydelta", "", "apply a generation patch (from -deltaout) to the scheme before serving")
	flag.Parse()

	mode, err := cliutil.ParseEvalFlags(*workers, 0, *distmode)
	if err != nil {
		fail(2, err)
	}
	if err := cliutil.ValidateServeFlags(*batch); err != nil {
		fail(2, err)
	}
	if *listen != "" {
		if err := cliutil.ValidateNetFlags(*listen, *shards, *deadline, *maxInFlight); err != nil {
			fail(2, err)
		}
	}
	if *queries == "" && *save == "" && *listen == "" {
		fail(2, fmt.Errorf("nothing to do: pass -save, -queries or -listen"))
	}
	if *listen != "" && *queries != "" {
		fail(2, fmt.Errorf("-listen and -queries are mutually exclusive (a listening server answers the wire protocol, not a query file)"))
	}
	if *mmap && *load == "" {
		fail(2, fmt.Errorf("-mmap only applies to -load"))
	}
	if *kill < 0 {
		fail(2, fmt.Errorf("-kill %d: victim count cannot be negative", *kill))
	}
	fmode, err := parseKillMode(*killMode)
	if err != nil {
		fail(2, err)
	}
	fweight, err := parseKillWeight(*killWeight)
	if err != nil {
		fail(2, err)
	}
	if *kill > 0 && *load != "" {
		fail(2, fmt.Errorf("-kill rewires the topology of a fresh build; to fault a persisted scheme, ship a generation patch with -applydelta"))
	}
	if *deltaOut != "" && (*kill == 0 || fmode != faults.KillEdges || *schemeName != "tables") {
		fail(2, fmt.Errorf("-deltaout records the incremental repair path: it needs -kill > 0, -killmode edges and -scheme tables"))
	}
	if *applyDelta != "" && *kill > 0 {
		fail(2, fmt.Errorf("-applydelta and -kill are mutually exclusive (a patch already names its removed edges)"))
	}
	if (*kill > 0 || *applyDelta != "") && *save != "" {
		// The graph serializer rejects dead ports by design: a faulted
		// topology persists as base container + generation patch.
		fail(2, fmt.Errorf("-save cannot persist a faulted generation (port holes are not serializable); persist the base with -save and the fault with -deltaout"))
	}
	if *mmap && *save != "" {
		// A mappable container is already canonical v2 byte for byte, so
		// "re-save" would be a file copy, and encoding the mapped scheme
		// would prove every stripe, the full decode -mmap exists to
		// avoid.
		fail(2, fmt.Errorf("-mmap and -save are mutually exclusive (a mapped container is already canonical v2; to re-encode, -load without -mmap)"))
	}

	// The E22 measurement hook: wall time and heap growth of getting the
	// scheme into servable shape. Resident bytes are the heap-profile
	// delta (HeapAlloc), deliberately excluding the mapped file pages —
	// those live in page cache and are exactly what -mmap keeps off the
	// Go heap.
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	loadStart := time.Now()
	g, s, apsp, enc, blobBytes, err := buildOrLoad(*load, *mmap, *family, *n, *schemeName, *seed, mode, *workers)
	if err != nil {
		fail(2, err)
	}
	loadWall := time.Since(loadStart)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	residentBytes := int64(msAfter.HeapAlloc) - int64(msBefore.HeapAlloc)
	if residentBytes < 0 {
		residentBytes = 0
	}

	// Fault pipeline — after the E22 load timers (faults are not load
	// cost). -save was already rejected for faulted runs: a post-fault
	// generation persists as base container + delta, never a container.
	if *kill > 0 {
		plan, err := faults.NewPlan(g, faults.Options{
			Mode: fmode, Count: *kill, Weighting: fweight,
			Seed: *killSeed, KeepConnected: !*killAnywhere,
		})
		if err != nil {
			fail(2, err)
		}
		repairStart := time.Now()
		plan.Apply(g)
		// A plan drawn with -killanywhere may split the graph. Neither
		// repair nor rebuild has a connected scheme to produce then (and
		// table repair would rewrite rows before failing), so such a
		// fault always takes the unrepaired path below.
		connected := g.Connected()
		if !connected && *deltaOut != "" {
			fail(2, fmt.Errorf("-deltaout: the fault disconnects the graph, so there is no repair to record (drop -killanywhere or change -killseed)"))
		}
		tsch, isTable := s.(*table.Scheme)
		_, isLandmark := s.(*landmark.Scheme)
		switch {
		case fmode == faults.KillEdges && isTable && apsp != nil && connected:
			// Incremental path: dirty-set refresh + row repair,
			// bit-identical to a from-scratch rebuild.
			dirty := faults.DirtyRoots(apsp, plan.Edges)
			apsp.RefreshRows(g, dirty)
			changed, err := tsch.Repair(apsp, dirty, table.MinPort)
			if err != nil {
				fail(1, err)
			}
			fmt.Fprintf(os.Stderr, "routeserve: killed %d edge(s) (seed %d): %d dirty roots, %d rows repaired in %.2f ms\n",
				len(plan.Edges), *killSeed, len(dirty), len(changed),
				float64(time.Since(repairStart).Microseconds())/1000)
			if *deltaOut != "" {
				d, err := schemeio.NewDelta(1, plan.Edges, tsch, changed)
				if err != nil {
					fail(1, err)
				}
				blob, err := schemeio.EncodeDelta(g, d)
				if err != nil {
					fail(1, err)
				}
				err = schemeio.WriteFileAtomic(*deltaOut, func(w io.Writer) error {
					_, err := w.Write(blob)
					return err
				})
				if err != nil {
					fail(1, err)
				}
				fmt.Fprintf(os.Stderr, "routeserve: generation patch 1->%d written to %s (%d bytes)\n",
					d.NewGen(), *deltaOut, len(blob))
			}
		case fmode == faults.KillEdges && isLandmark && connected:
			// Rebuild: the same seed draws the same landmark set, and the
			// streamed build needs no dense table.
			rebuilt, err := landmark.NewStreamed(g, landmark.Options{Seed: *seed}, *workers)
			if err != nil {
				fail(1, err)
			}
			s = rebuilt
			apsp = nil // pre-fault distances: stretch denominators must re-derive
			fmt.Fprintf(os.Stderr, "routeserve: killed %d edge(s) (seed %d): landmark scheme rebuilt in %.2f ms\n",
				len(plan.Edges), *killSeed, float64(time.Since(repairStart).Microseconds())/1000)
		default:
			// No repair or rebuild for this combination (vertex kills
			// disconnect the pair space by construction; a disconnecting
			// edge kill leaves no connected scheme to build; other schemes
			// have no fault path on this CLI): serve the pre-fault scheme
			// on the damaged topology — the degraded service
			// internal/faults measures. Broken routes surface as typed
			// per-query errors, never wrong deliveries.
			if !connected && fmode == faults.KillEdges {
				fmt.Fprintf(os.Stderr, "routeserve: the fault disconnects the graph; serving the pre-fault %s scheme\n", s.Name())
			}
			apsp = nil // pre-fault distances: stretch denominators must re-derive
			fmt.Fprintf(os.Stderr, "routeserve: killed %d edge(s), %d vertex(es) (seed %d); scheme left unrepaired — broken routes report typed errors\n",
				len(plan.Edges), len(plan.Vertices), *killSeed)
		}
	}
	if *applyDelta != "" {
		tsch, ok := s.(*table.Scheme)
		if !ok {
			fail(2, fmt.Errorf("-applydelta patches table schemes; this container holds %s", s.Name()))
		}
		blob, err := os.ReadFile(*applyDelta)
		if err != nil {
			fail(1, err)
		}
		d, err := schemeio.DecodeDelta(blob, g)
		if err != nil {
			fail(1, err)
		}
		patchStart := time.Now()
		h, ns, err := schemeio.ApplyDelta(g, tsch, d)
		if err != nil {
			fail(1, err)
		}
		g, s = h, ns
		apsp = nil // the loaded hop table (if any) described generation d.BaseGen
		fmt.Fprintf(os.Stderr, "routeserve: applied generation patch %d->%d: %d edge(s) removed, %d row(s) patched in %.2f ms\n",
			d.BaseGen, d.NewGen(), len(d.Edges), len(d.Routers),
			float64(time.Since(patchStart).Microseconds())/1000)
	}

	if *save != "" {
		// Atomic replace: a server mapping the old file keeps its bytes.
		err := schemeio.WriteFileAtomic(*save, func(w io.Writer) error {
			if enc != nil {
				return schemeio.WriteFileV2Encoded(w, g, enc) // fresh build: blob already encoded once
			}
			return schemeio.WriteFileV2(w, g, s) // -load + -save: re-encode (canonical) into a v2 container
		})
		if err != nil {
			fail(1, err)
		}
	}
	verb := "built"
	if *load != "" {
		verb = "loaded"
		if *mmap {
			verb = "mapped"
		}
	}
	fmt.Fprintf(os.Stderr, "routeserve: scheme %s on n=%d m=%d (%d persisted bytes)\n",
		s.Name(), g.Order(), g.Size(), blobBytes)
	fmt.Fprintf(os.Stderr, "routeserve: %s in %.2f ms, resident %d bytes\n",
		verb, float64(loadWall.Microseconds())/1000, residentBytes)

	if *queries == "" && *listen == "" {
		return // save-only run: no serving, so never build a distance oracle
	}
	// The oracle backend only matters for stretch queries, and which ops
	// a query stream holds is unknown until it is read — so resolution
	// is lazy: a dense table a scheme build already produced is reused
	// immediately, anything else (including dense mode's n² build on
	// the -load path) is deferred until the first stretch query
	// actually reads a row. Route/len-only streams never pay for an
	// oracle at all. Sharded serving calls shardSource once per shard:
	// the dense table, when one exists, is shared (it is read-only and
	// one n² block is plenty), while stream shards each get their own
	// backend so a shard's resident rows are exactly the rows its
	// owned sources asked for.
	opt := evaluate.Options{Workers: *workers, DistMode: mode}
	var sharedSrc shortest.DistanceSource
	if apsp != nil {
		sharedSrc = apsp
	} else if mode == evaluate.DistDense {
		sharedSrc = serve.LazySource(g.Order(), func() shortest.DistanceSource {
			resolved, err := opt.Source(g, nil)
			if err != nil {
				fail(1, err) // unreachable: ParseEvalFlags admitted only servable modes
			}
			return resolved
		})
	}
	shardSource := func() shortest.DistanceSource {
		if sharedSrc != nil {
			return sharedSrc
		}
		return serve.LazySource(g.Order(), func() shortest.DistanceSource {
			resolved, err := opt.Source(g, nil)
			if err != nil {
				fail(1, err)
			}
			return resolved
		})
	}
	if *listen != "" {
		runListen(g, s, shardSource, *listen, *shards, *deadline, *maxInFlight, *workers)
		return
	}
	sv := serve.New(g, s, shardSource(), serve.Options{Workers: *workers})
	if err := serveQueries(sv, *queries, *batch); err != nil {
		fail(1, err)
	}
}

func parseKillMode(s string) (faults.Mode, error) {
	switch s {
	case "edges":
		return faults.KillEdges, nil
	case "vertices":
		return faults.KillVertices, nil
	default:
		return 0, fmt.Errorf("unknown -killmode %q (edges|vertices)", s)
	}
}

func parseKillWeight(s string) (faults.Weighting, error) {
	switch s {
	case "uniform":
		return faults.Uniform, nil
	case "bydegree":
		return faults.ByDegree, nil
	default:
		return 0, fmt.Errorf("unknown -killweight %q (uniform|bydegree)", s)
	}
}

func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "routeserve: %v\n", err)
	os.Exit(code)
}

// runListen serves the netserve wire protocol until SIGINT/SIGTERM,
// then drains gracefully. One shard serves directly; k > 1 shards run
// on loopback ephemeral ports behind a scatter/gather front bound to
// the public address, so clients see one endpoint either way.
func runListen(g *graph.Graph, s routing.Scheme, shardSource func() shortest.DistanceSource, listen string, shards int, deadline time.Duration, maxInFlight int, workers int) {
	if _, err := netserve.NewShardMap(g.Order(), shards); err != nil {
		fail(2, err)
	}
	netOpt := netserve.Options{ReadTimeout: deadline, WriteTimeout: deadline, MaxInFlight: maxInFlight}
	var (
		front   *netserve.Server
		group   *netserve.Group
		cluster *netserve.Cluster
	)
	if shards == 1 {
		sv := serve.New(g, s, shardSource(), serve.Options{Workers: workers})
		front = netserve.NewServerInto(sv.ServeBatchInto, netOpt)
	} else {
		var err error
		group, err = netserve.ListenGroupInto(shards, func(int) netserve.BatchHandlerInto {
			sv := serve.New(g, s, shardSource(), serve.Options{Workers: workers})
			return sv.ServeBatchInto
		}, netOpt)
		if err != nil {
			fail(1, err)
		}
		cluster, err = netserve.DialCluster(group.Addrs(), g.Order(), netserve.ClusterOptions{Deadline: deadline})
		if err != nil {
			group.Close()
			fail(1, err)
		}
		front = netserve.NewServerInto(cluster.ServeBatchInto, netOpt)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fail(1, err)
	}
	fmt.Fprintf(os.Stderr, "routeserve: listening on %s (%d shard(s), deadline %v, maxinflight %d)\n",
		ln.Addr(), shards, deadline, maxInFlight)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "routeserve: draining")
		front.Close()
		if cluster != nil {
			cluster.Close()
		}
		if group != nil {
			group.Close()
		}
	}()
	if err := front.Serve(ln); err != nil {
		fail(1, err)
	}
}

// buildOrLoad resolves the served (graph, scheme) pair: from a scheme
// file when -load is given, else built from the family/scheme flags
// (the family dispatch is gen.ByName, shared with memreq). It returns
// the persisted size either way — loaded files report what was read
// (the container size on disk; no re-encode on the load path), fresh
// builds what Encode produces — so the startup line always shows the
// persistence cost next to the scheme. The returned apsp is the dense
// hop table a scheme build computed, when one was needed, so the
// stretch oracle can reuse it instead of building the n² table twice;
// it is nil on the load path, for table-free schemes and in streaming
// modes. The returned Encoded (nil on the load path) is the blob a
// fresh build produced, so -save writes those exact bytes instead of
// encoding a second time.
func buildOrLoad(load string, useMmap bool, family string, n int, schemeName string, seed uint64, mode evaluate.DistMode, workers int) (*graph.Graph, routing.Scheme, *shortest.APSP, *schemeio.Encoded, int, error) {
	if load != "" {
		if useMmap {
			// Zero-copy path: O(index) validation now, router payloads
			// decoded on first touch straight out of the mapping. The
			// Mapped stays open for the process lifetime (the scheme
			// routes out of it), so Close is never called here.
			m, err := schemeio.OpenMapped(load)
			if err != nil {
				return nil, nil, nil, nil, 0, err
			}
			st, err := os.Stat(load)
			if err != nil {
				return nil, nil, nil, nil, 0, err
			}
			return m.Graph(), m.Scheme(), nil, nil, int(st.Size()), nil
		}
		f, err := os.Open(load)
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		defer f.Close()
		g, s, err := schemeio.ReadFile(f)
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		st, err := f.Stat()
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		return g, s, nil, nil, int(st.Size()), nil
	}
	g, err := gen.ByName(family, n, xrand.New(seed))
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	streaming := mode == evaluate.DistStream
	s, apsp, err := cliutil.BuildScheme(schemeName, g, cliutil.SchemeConfig{Seed: seed, Streaming: streaming, Workers: workers})
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	enc, err := schemeio.Encode(g, s)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	return g, s, apsp, enc, len(enc.Bytes), nil
}

// serveQueries streams the query file through the server in -batch
// sized batches, one answer line per query, in input order.
func serveQueries(sv *serve.Server, path string, batch int) error {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	qs := make([]serve.Query, 0, batch)
	lineNo := 0
	flush := func() {
		if len(qs) == 0 {
			return
		}
		for _, res := range sv.ServeBatch(qs) {
			printResult(out, res)
		}
		qs = qs[:0]
		// Push the batch's answers downstream now: a co-process driving
		// the stream over a pipe waits for them before sending more
		// queries, so buffering until EOF would deadlock both sides.
		out.Flush()
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := parseQuery(line)
		if err != nil {
			flush() // answer what was already accepted before failing
			return fmt.Errorf("query line %d: %w", lineNo, err)
		}
		qs = append(qs, q)
		if len(qs) == batch {
			flush()
		}
	}
	if err := sc.Err(); err != nil {
		flush() // a scan error must not drop already-accepted answers either
		return err
	}
	flush()
	return nil
}

func parseQuery(line string) (serve.Query, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return serve.Query{}, fmt.Errorf("want `op u v`, got %q", line)
	}
	op, err := serve.ParseOp(fields[0])
	if err != nil {
		return serve.Query{}, err
	}
	u, err := strconv.Atoi(fields[1])
	if err != nil {
		return serve.Query{}, fmt.Errorf("bad source in %q: %w", line, err)
	}
	v, err := strconv.Atoi(fields[2])
	if err != nil {
		return serve.Query{}, fmt.Errorf("bad destination in %q: %w", line, err)
	}
	return serve.Query{Op: op, U: graph.NodeID(u), V: graph.NodeID(v)}, nil
}

func printResult(out *bufio.Writer, res serve.Result) {
	if res.Err != nil {
		fmt.Fprintf(out, "error: %v\n", res.Err)
		return
	}
	switch {
	case res.Hops != nil:
		fmt.Fprintf(out, "len=%d path=", res.Len)
		for i, h := range res.Hops {
			if i > 0 {
				out.WriteByte(' ')
			}
			if h.Port == graph.NoPort {
				fmt.Fprintf(out, "%d", h.Node)
			} else {
				fmt.Fprintf(out, "%d[%d]", h.Node, h.Port)
			}
		}
		out.WriteByte('\n')
	case res.Dist != 0 || res.Stretch != 0:
		fmt.Fprintf(out, "len=%d dist=%d stretch=%.4f\n", res.Len, res.Dist, res.Stretch)
	default:
		fmt.Fprintf(out, "len=%d\n", res.Len)
	}
}
