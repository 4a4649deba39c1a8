package netserve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/coding"
	"repro/internal/serve"
)

// ClusterOptions configure the scatter/gather client.
type ClusterOptions struct {
	// Deadline bounds one sub-batch round trip to one shard. A shard
	// that has not answered by then is a straggler: its queries get
	// per-query errors, the rest of the batch is unaffected.
	// Default 5s.
	Deadline time.Duration
}

// Cluster is the thin router/aggregator front over k shard servers:
// ServeBatchInto scatters a batch to the shards owning each query's
// source router, gathers the sub-replies, and reassembles them in
// request order. It has the exact signature and positional contract of
// serve.(*Server).ServeBatchInto, so the conformance suite can compare the
// two byte for byte — and so a Cluster can itself be the handler of a
// front Server, which is how routeserve exposes a sharded cluster
// behind one listen address.
//
// Failure semantics (the first-error rule, per shard): the first
// transport-level failure on a shard — dial, write, deadline, refusal,
// short reply — stamps every query that batch sent to that shard with
// that one error. Other shards' answers are delivered untouched; the
// batch as a whole never fails.
type Cluster struct {
	m     ShardMap
	opt   ClusterOptions
	pools []*connPool
}

// DialCluster connects to the shard servers at addrs, one address per
// shard in ShardMap order, over the router space [0, n). Every address
// is probed so a dead shard fails here, not mid-batch.
func DialCluster(addrs []string, n int, opt ClusterOptions) (*Cluster, error) {
	m, err := NewShardMap(n, len(addrs))
	if err != nil {
		return nil, err
	}
	if opt.Deadline <= 0 {
		opt.Deadline = 5 * time.Second
	}
	c := &Cluster{m: m, opt: opt}
	for i, addr := range addrs {
		conn, err := probeDial(addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netserve: shard %d at %s: %w", i, addr, err)
		}
		p := &connPool{addr: addr}
		p.put(newPooledConn(conn))
		c.pools = append(c.pools, p)
	}
	return c, nil
}

// Map returns the ownership partition.
func (c *Cluster) Map() ShardMap { return c.m }

// ServeBatchInto answers every query positionally, scattering to
// owning shards concurrently. Per-query errors (wrong op, unreachable
// pair) travel inside shard replies; shard-level failures become
// per-query errors on that shard's queries only. out is a
// caller-recycled result buffer (nil allocates), mirroring
// serve.(*Server).ServeBatchInto: every position is overwritten
// (stamped locally, or written by exactly one shard goroutine), so
// reuse never leaks stale answers. This is the handler a front Server
// plugs in via NewServerInto.
//
//repolint:hotpath
func (c *Cluster) ServeBatchInto(qs []serve.Query, out []serve.Result) []serve.Result {
	if cap(out) >= len(qs) {
		out = out[:len(qs)]
	} else {
		out = make([]serve.Result, len(qs))
	}
	if len(qs) == 0 {
		return out
	}
	// Scatter plan: indices into qs per owning shard. Sources outside
	// [0, n) have no owner; they are answered locally with the serial
	// server's exact message, so a sharded cluster and a serve.Server
	// reject nonsense identically.
	perShard := make([][]int, c.m.K)
	for i, q := range qs {
		if q.U < 0 || int(q.U) >= c.m.N || q.V < 0 || int(q.V) >= c.m.N {
			//repolint:alloc-ok rejection path: allocates only for invalid queries
			out[i] = serve.Result{Err: fmt.Errorf("serve: pair %d->%d outside [0,%d)", q.U, q.V, c.m.N)}
			continue
		}
		s := c.m.Owner(q.U)
		perShard[s] = append(perShard[s], i)
	}
	var wg sync.WaitGroup
	for s, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		//repolint:alloc-ok one fan-out goroutine per non-empty shard per batch, not per query
		go func(shard int, idxs []int) {
			defer wg.Done()
			sub := make([]serve.Query, len(idxs))
			for j, i := range idxs {
				sub[j] = qs[i]
			}
			rs, err := c.callShard(shard, sub)
			if err != nil {
				// First-error rule: one failure stamps the whole
				// sub-batch — order preserved, other shards unaffected.
				for _, i := range idxs {
					out[i] = serve.Result{Err: err}
				}
				return
			}
			for j, i := range idxs {
				out[i] = rs[j]
			}
		}(s, idxs)
	}
	wg.Wait()
	return out
}

// callShard runs one framed round trip against one shard under the
// cluster deadline. The connection returns to the shard's pool only
// after a fully successful exchange; any failure discards it, so a
// poisoned stream can never serve a later batch.
func (c *Cluster) callShard(shard int, sub []serve.Query) ([]serve.Result, error) {
	// Encode into a pooled writer: the request bytes stay valid across
	// the one stale-connection retry because the writer is held until
	// this call returns.
	w := bitWriterPool.Get().(*coding.BitWriter)
	defer bitWriterPool.Put(w)
	w.Reset()
	if err := AppendRequest(w, sub); err != nil {
		return nil, fmt.Errorf("netserve: shard %d: %w", shard, err)
	}
	req := w.Bytes()
	pc, fresh, err := c.pools[shard].get()
	if err != nil {
		return nil, fmt.Errorf("netserve: shard %d: dial: %w", shard, err)
	}
	rs, err := pc.roundTrip(req, c.opt.Deadline)
	if err != nil && !fresh {
		// A pooled connection may have been idle-reaped by the server
		// (ReadTimeout) between batches; retry exactly once on a fresh
		// dial before declaring the shard unhealthy. Fresh-dial
		// failures are genuine and never retried.
		pc.close()
		if pc, _, err = c.pools[shard].dialFresh(); err != nil {
			return nil, fmt.Errorf("netserve: shard %d: dial: %w", shard, err)
		}
		rs, err = pc.roundTrip(req, c.opt.Deadline)
	}
	if err != nil {
		pc.close()
		return nil, fmt.Errorf("netserve: shard %d: %w", shard, err)
	}
	if len(rs) != len(sub) {
		pc.close()
		return nil, fmt.Errorf("netserve: shard %d: %d results for %d queries", shard, len(rs), len(sub))
	}
	c.pools[shard].put(pc)
	return rs, nil
}

// Close closes every pooled connection. In-flight batches on other
// goroutines fail their round trips and report per-query errors.
func (c *Cluster) Close() error {
	for _, p := range c.pools {
		p.closeAll()
	}
	return nil
}

// pooledConn pairs a connection with its buffered reader (buffered
// bytes belong to the connection, so the pair must travel together)
// and its reply-frame scratch (one goroutine owns a pooled connection
// at a time, so the scratch needs no lock).
type pooledConn struct {
	conn         net.Conn
	br           *bufio.Reader
	bw           *bufio.Writer
	frameScratch []byte
}

func newPooledConn(conn net.Conn) *pooledConn {
	return &pooledConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// roundTrip writes one request frame and reads one reply frame under
// deadline, decoding it. A decoded Refusal is returned as the error.
func (pc *pooledConn) roundTrip(req []byte, deadline time.Duration) ([]serve.Result, error) {
	pc.conn.SetDeadline(time.Now().Add(deadline))
	if err := writeFrame(pc.bw, req); err != nil {
		return nil, err
	}
	if err := pc.bw.Flush(); err != nil {
		return nil, err
	}
	payload, err := readFrameInto(pc.br, &pc.frameScratch)
	if err != nil {
		return nil, err
	}
	// DecodeResponse copies everything it keeps (strings, hop slices),
	// so the scratch-aliasing payload may be overwritten next round trip.
	return DecodeResponse(payload)
}

func (pc *pooledConn) close() { pc.conn.Close() }

// connPool is a per-shard stack of idle connections. Concurrent
// batches each pop (or dial) their own connection, so pipelining never
// happens on one stream; the protocol stays strictly request/reply.
type connPool struct {
	addr string

	mu     sync.Mutex
	idle   []*pooledConn
	closed bool
}

// get pops an idle connection or dials a fresh one. fresh reports
// which, so the caller knows whether a stale-connection retry applies.
func (p *connPool) get() (pc *pooledConn, fresh bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("cluster closed")
	}
	if n := len(p.idle); n > 0 {
		pc = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, false, nil
	}
	p.mu.Unlock()
	return p.dialFresh()
}

func (p *connPool) dialFresh() (*pooledConn, bool, error) {
	conn, err := probeDial(p.addr)
	if err != nil {
		return nil, true, err
	}
	return newPooledConn(conn), true, nil
}

func (p *connPool) put(pc *pooledConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.close()
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, pc := range idle {
		pc.close()
	}
}
