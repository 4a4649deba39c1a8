package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/netserve"
	"repro/internal/serve"
	"repro/internal/shortest"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kBatch spanKind = iota // client batch: due time → gather complete
	kGenWait
	kCluster // netserve.Cluster.ServeBatchInto
	kServe   // the shard handler (serve.HotServer.ServeBatchInto)
	kRow     // shortest.RowReader.Row
	kSetup   // one lifecycle: build → first checked answer
	kAPSP
	kTableBuild
	kLandmarkBuild
	kEncode
	kWrite
	kOpen
	kVerify
	kBoot
	kSwapRoot // one generation change: requested → checked answer on it
	kPlan
	kDirty
	kRefresh
	kRepair
	kDeltaEncode
	kDeltaApply
	kSwapCall
	kCheck // a verification pass over the pool
	numKinds
)

var kindNames = [numKinds]string{
	"batch", "gen.wait", "netserve.cluster", "serve.batch", "shortest.row",
	"setup", "shortest.apsp", "table.build", "landmark.build", "schemeio.encode",
	"schemeio.write", "schemeio.open", "schemeio.verify", "netserve.boot",
	"swap", "faults.plan", "faults.dirty", "shortest.refresh", "table.repair",
	"schemeio.delta_encode", "schemeio.delta_apply", "serve.swap", "check",
}

func (k spanKind) String() string { return kindNames[k] }

func (k spanKind) isRoot() bool { return k == kBatch || k == kSetup || k == kSwapRoot || k == kCheck }

// span is one timed call. Client-side spans of one root share key (the
// root's sequence number) and carry the batch id they sent in aux;
// serve.batch spans carry the packed (shard, first query) key of the
// sub-batch they answered, which the query sets guarantee unique, and
// shortest.row spans their reader in aux and its birth time in key.
// Server-side spans are linked to their client batch after the run.
type span struct {
	start, end int64 // ns since the tracer epoch
	key        int64
	aux        int32 // batch id (client spans) or reader (rows), -1 when none
	n          int32 // queries in the call, or bytes for write spans
	kind       spanKind
	shard      uint8
}

// spanCap bounds the preallocated span buffer (40 MB), which holds a
// run's set-ups, slices and swaps with room to spare; knee probes keep
// no spans. Spans past the buffer are counted, timed and dropped, so
// tracing costs the same whether or not a span lands.
const spanCap = 1 << 20

// tracer keeps spans in a preallocated buffer, written out only after
// the run, when every goroutine that records has been waited for.
type tracer struct {
	epoch   time.Time
	buf     []span
	cur     atomic.Int64
	seq     atomic.Int64
	readers atomic.Int32
	// paused drops spans while the wrappers keep timing: the knee probes
	// pay tracing's cost without filling the buffer.
	paused atomic.Bool
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// root returns a fresh key for one span tree.
func (t *tracer) root() int64 { return t.seq.Add(1) }

func (t *tracer) add(s span) {
	if t.paused.Load() {
		return
	}
	if i := t.cur.Add(1) - 1; i < int64(len(t.buf)) {
		t.buf[i] = s
	}
}

// spans returns the recorded spans. Call it only after every recording
// goroutine has been waited for.
func (t *tracer) spans() []span {
	n := t.cur.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

func (t *tracer) dropped() int64 {
	if d := t.cur.Load() - int64(len(t.buf)); d > 0 {
		return d
	}
	return 0
}

// timed runs f under a span of kind k in the tree key. A nil tracer
// just runs f.
func (t *tracer) timed(k spanKind, key int64, f func() error) error {
	if t == nil {
		return f()
	}
	s := span{kind: k, key: key, aux: -1, start: t.now()}
	err := f()
	s.end = t.now()
	t.add(s)
	return err
}

// queryKey packs a sub-batch's shard and first query into the key a
// server-side span is linked by.
func queryKey(shard int, q serve.Query) int64 {
	return int64(shard)<<56 | int64(q.Op)<<48 | int64(q.U)<<24 | int64(q.V)
}

// tracedHandler wraps a shard handler with serve.batch spans.
func tracedHandler(t *tracer, shard int, h netserve.BatchHandlerInto) netserve.BatchHandlerInto {
	return func(qs []serve.Query, out []serve.Result) []serve.Result {
		start := t.now()
		out = h(qs, out)
		s := span{kind: kServe, shard: uint8(shard), aux: -1, n: int32(len(qs)), start: start, end: t.now()}
		if len(qs) > 0 {
			s.key = queryKey(shard, qs[0])
		}
		t.add(s)
		return out
	}
}

// tracedSource wraps a distance source so every Row call is a
// shortest.row span. wrapSource keeps the RowBatcher capability of the
// wrapped source visible.
type tracedSource struct {
	shortest.DistanceSource
	t     *tracer
	shard uint8
}

// NewReader numbers each reader and notes when it was made:
// serve.Server takes one reader per batch as the batch starts, so a
// reader's rows belong to the serve.batch span on its shard that
// started last before the reader was made.
func (s *tracedSource) NewReader() shortest.RowReader {
	return &tracedReader{rd: s.DistanceSource.NewReader(), t: s.t, shard: s.shard, id: s.t.readers.Add(1), born: s.t.now()}
}

type tracedBatchSource struct {
	*tracedSource
	b shortest.RowBatcher
}

func (s tracedBatchSource) RowBatch() int { return s.b.RowBatch() }

func wrapSource(t *tracer, shard int, src shortest.DistanceSource) shortest.DistanceSource {
	ts := &tracedSource{DistanceSource: src, t: t, shard: uint8(shard)}
	if b, ok := src.(shortest.RowBatcher); ok {
		return tracedBatchSource{tracedSource: ts, b: b}
	}
	return ts
}

type tracedReader struct {
	rd    shortest.RowReader
	t     *tracer
	shard uint8
	id    int32
	born  int64
}

func (r *tracedReader) Row(src graph.NodeID) []int32 {
	start := r.t.now()
	row := r.rd.Row(src)
	r.t.add(span{kind: kRow, shard: r.shard, aux: r.id, key: r.born, start: start, end: r.t.now()})
	return row
}

// tree is the linked form of the span buffer.
type tree struct {
	spans    []span
	parent   []int32
	children [][]int32
	self     []int64
	unlinked int // non-root spans no parent was found for
}

func (s span) dur() int64 { return s.end - s.start }

// link resolves every span's parent: client-side children by their
// root's key, serve.batch spans by their (shard, first query) key to
// the netserve.cluster span that sent that batch and contains them,
// and the rows of one reader to the serve.batch span on their shard
// that started last before the reader was made and contains them all
// (two batches can run at once on a shard, so a batch that started
// just before another's reader was made may take its rows).
// It then computes self times: duration minus the union of the
// children.
func link(spans []span, batchOf map[int64]int32) *tree {
	tr := &tree{spans: spans, parent: make([]int32, len(spans)), children: make([][]int32, len(spans)), self: make([]int64, len(spans))}
	rootOf := make(map[int64]int32)
	clusterOf := make(map[int32][]int32) // batch id → netserve.cluster spans
	rowsOf := make(map[int32][]int32)    // reader → shortest.row spans
	var serveByShard [256][]int32
	for i, s := range spans {
		tr.parent[i] = -1
		switch {
		case s.kind.isRoot():
			rootOf[s.key] = int32(i)
		case s.kind == kCluster && s.aux >= 0:
			clusterOf[s.aux] = append(clusterOf[s.aux], int32(i))
		case s.kind == kServe:
			serveByShard[s.shard] = append(serveByShard[s.shard], int32(i))
		case s.kind == kRow:
			rowsOf[s.aux] = append(rowsOf[s.aux], int32(i))
		}
	}
	for sh := range serveByShard {
		l := serveByShard[sh]
		sort.Slice(l, func(a, b int) bool { return spans[l[a]].start < spans[l[b]].start })
	}
	inside := func(c, p span) bool { return c.start >= p.start && c.end <= p.end }
	setParent := func(i, p int32) {
		tr.parent[i] = p
		if p < 0 {
			tr.unlinked++
			return
		}
		tr.children[p] = append(tr.children[p], i)
	}
	for _, rows := range rowsOf {
		first := spans[rows[0]]
		r := span{start: first.start, end: first.end}
		for _, i := range rows {
			r.start = min(r.start, spans[i].start)
			r.end = max(r.end, spans[i].end)
		}
		l := serveByShard[first.shard]
		p := int32(-1)
		j := sort.Search(len(l), func(k int) bool { return spans[l[k]].start > first.key }) - 1
		for ; j >= 0 && first.key-spans[l[j]].start < int64(time.Second); j-- {
			if inside(r, spans[l[j]]) {
				p = l[j]
				break
			}
		}
		for _, i := range rows {
			setParent(i, p)
		}
	}
	for i, s := range spans {
		p := int32(-1)
		switch s.kind {
		case kBatch, kSetup, kSwapRoot, kCheck, kRow:
			continue
		case kServe:
			if b, ok := batchOf[s.key]; ok {
				for _, c := range clusterOf[b] {
					if inside(s, spans[c]) {
						p = c
						break
					}
				}
			}
		default:
			if r, ok := rootOf[s.key]; ok && inside(s, spans[r]) {
				p = r
			}
		}
		setParent(int32(i), p)
	}
	for i := range spans {
		tr.self[i] = spans[i].dur() - tr.covered(int32(i))
	}
	return tr
}

// covered is the length of the union of i's children, clipped to i.
func (tr *tree) covered(i int32) int64 {
	kids := tr.children[i]
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	p := tr.spans[i]
	for _, c := range kids {
		s, e := tr.spans[c].start, tr.spans[c].end
		if s < p.start {
			s = p.start
		}
		if e > p.end {
			e = p.end
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans dumps the linked buffer as JSON for offline reading.
func writeSpans(path, workload string, tr *tree, dropped int64) error {
	type jspan struct {
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		Shard   int    `json:"shard"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		SelfNs  int64  `json:"self_ns"`
		N       int32  `json:"n,omitempty"`
	}
	doc := struct {
		Workload string  `json:"workload"`
		Dropped  int64   `json:"dropped"`
		Unlinked int     `json:"unlinked"`
		Spans    []jspan `json:"spans"`
	}{Workload: workload, Dropped: dropped, Unlinked: tr.unlinked, Spans: make([]jspan, len(tr.spans))}
	for i, s := range tr.spans {
		doc.Spans[i] = jspan{ID: i, Parent: tr.parent[i], Name: s.kind.String(), Shard: int(s.shard),
			StartNs: s.start, EndNs: s.end, SelfNs: tr.self[i], N: s.n}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(&doc); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
