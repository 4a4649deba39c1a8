package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/coding"
	"repro/internal/serve"
)

// BatchHandlerInto answers one decoded query batch positionally — the
// signature of serve.(*Server).ServeBatchInto and of
// (*Cluster).ServeBatchInto, so a shard and an aggregator front are the
// same server with a different handler plugged in. out's backing array
// may be reused when it is big enough (a nil out allocates), and every
// position of the returned slice is overwritten. The server hands each connection's previous result
// buffer back in, so a warm connection serves batches without
// allocating results.
type BatchHandlerInto func(qs []serve.Query, out []serve.Result) []serve.Result

// Options configure a Server. Zero values select the defaults noted on
// each field; negative durations are rejected by cliutil before a CLI
// ever builds an Options.
type Options struct {
	// ReadTimeout bounds the wait for the next request frame on a
	// connection; an idle connection past it is closed. Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response frame. Default 10s.
	WriteTimeout time.Duration
	// MaxInFlight is the admission-control cap: at most this many
	// batches execute concurrently across all connections. A frame
	// arriving with the semaphore full is answered RefuseOverloaded
	// immediately — explicit rejection, never unbounded queueing.
	// Default 64.
	MaxInFlight int
	// DrainTimeout bounds Close's graceful drain: in-flight batches
	// get this long to finish and flush before connections are
	// force-closed. Default 5s.
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// Server accepts connections and answers framed query batches through
// its handler. The query path holds no locks: the semaphore gates
// admission, the handler (serve.Server.ServeBatchInto) is lock-free by the
// read-only-after-decode contract, and each connection is owned by one
// goroutine.
type Server struct {
	h   BatchHandlerInto
	opt Options

	sem chan struct{} // admission: one slot per in-flight batch

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	quit   chan struct{} // closed by Close: wakes an accept backoff

	wg sync.WaitGroup // connection goroutines
}

// NewServerInto returns a server answering batches with h: each
// connection's result buffer cycles through h across batches.
func NewServerInto(h BatchHandlerInto, opt Options) *Server {
	opt = opt.withDefaults()
	return &Server{
		h:     h,
		opt:   opt,
		sem:   make(chan struct{}, opt.MaxInFlight),
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
}

// Listen binds addr and serves in a background goroutine, returning
// the bound address (useful with ":0"). Close stops it.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln) //nolint:errcheck // surfaced via Close; accept errors after Close are expected
	return ln.Addr(), nil
}

// Accept backoff bounds: a temporary accept failure is retried after a
// delay that doubles from acceptBackoffMin up to acceptBackoffMax, as
// net/http does.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Serve accepts connections on ln until Close. It returns nil after a
// graceful Close, or the first fatal accept error. Temporary accept
// errors — running out of file descriptors (EMFILE, ENFILE) above all —
// are retried with capped exponential backoff, so a burst of
// connections past the fd limit pauses accepting instead of ending it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("netserve: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			if !isTemporary(err) {
				return err
			}
			delay = min(max(2*delay, acceptBackoffMin), acceptBackoffMax)
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-s.quit:
				t.Stop()
				return nil
			}
			continue
		}
		delay = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// isTemporary reports whether an accept error is worth retrying: the
// Temporary method of net.Error, which syscall.Errno answers true for
// EMFILE, ENFILE and EINTR. net.Error deprecates the method for general
// use; accept loops are the use it still serves.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// handleConn runs the per-connection request/reply loop.
//
//repolint:hotpath
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	// Per-connection scratch: the frame buffer, the decoded query slice
	// and the result slice all cycle across this connection's batches,
	// so a warm connection's read-decode-serve-encode loop allocates
	// only what the queries themselves force (route hop slices).
	var frameScratch []byte
	var qsScratch []serve.Query
	var rsScratch []serve.Result
	for {
		if s.isClosed() {
			return // drain: finish the batch in hand (already replied), take no more
		}
		conn.SetReadDeadline(time.Now().Add(s.opt.ReadTimeout))
		payload, err := readFrameInto(br, &frameScratch)
		if err != nil {
			// EOF, idle timeout and the Close wake-up all land here and
			// just drop the connection. A frame that arrived but did not
			// parse (bad length prefix, oversized declaration) gets an
			// explicit refusal first — then the connection must close,
			// because the stream position is unrecoverable.
			if !errors.Is(err, net.ErrClosed) && isFramingError(err) {
				s.reply(conn, bw, EncodeRefusal(RefuseMalformed, err.Error()))
			}
			return
		}
		if s.isClosed() {
			s.reply(conn, bw, EncodeRefusal(RefuseShutdown, "server draining"))
			return
		}
		qs, err := DecodeRequestInto(payload, qsScratch)
		if qs != nil {
			qsScratch = qs
		}
		if err != nil {
			// The frame boundary is intact (length prefix parsed), so the
			// stream stays synchronized: refuse this message, keep serving.
			if !s.reply(conn, bw, EncodeRefusal(RefuseMalformed, err.Error())) {
				return
			}
			continue
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// Admission control: reject now, explicitly. The client sees
			// RefuseOverloaded and decides; nothing queues on the server.
			if !s.reply(conn, bw, EncodeRefusal(RefuseOverloaded, "admission limit reached")) {
				return
			}
			continue
		}
		ok := s.serveBatch(conn, bw, qs, &rsScratch)
		<-s.sem
		if !ok {
			return
		}
	}
}

// serveBatch answers one admitted batch; the semaphore slot is held
// across handler AND response write, so MaxInFlight bounds the whole
// per-batch resource footprint, not just the compute phase. The
// response is encoded into a pooled writer and returned to the pool
// after the frame is flushed; the connection's result buffer recycles
// through rsScratch.
func (s *Server) serveBatch(conn net.Conn, bw *bufio.Writer, qs []serve.Query, rsScratch *[]serve.Result) bool {
	rs := s.h(qs, *rsScratch)
	*rsScratch = rs
	w := bitWriterPool.Get().(*coding.BitWriter)
	defer bitWriterPool.Put(w)
	w.Reset()
	if err := AppendResponse(w, rs); err != nil {
		// Unreachable for results a serve.Server produces on an
		// in-range graph; kept as a refusal so a handler bug surfaces
		// as a protocol answer instead of a dropped connection.
		return s.reply(conn, bw, EncodeRefusal(RefuseMalformed, err.Error()))
	}
	return s.reply(conn, bw, w.Bytes())
}

// reply writes one framed payload under the write deadline. A false
// return means the connection is beyond use.
func (s *Server) reply(conn net.Conn, bw *bufio.Writer, payload []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
	if err := writeFrame(bw, payload); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// isFramingError reports whether err came from parsing a frame rather
// than from the connection dying (timeouts, resets, EOF) — only the
// former deserves a refusal message on the way out. A clean EOF at a
// frame boundary and an EOF mid-frame both mean the peer is gone, so
// writing a refusal there would only feed a dead socket.
func isFramingError(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return false
	}
	return !errors.Is(err, net.ErrClosed) &&
		!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// Close gracefully drains the server: stop accepting, let in-flight
// batches finish and flush their responses (bounded by DrainTimeout),
// then close every connection. Idle connections are woken and closed
// immediately. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	ln := s.ln
	// Wake readers blocked waiting for a frame: their read returns a
	// timeout, the loop observes closed and exits. Connections mid-batch
	// are not disturbed — their next read hits the expired deadline only
	// after the response is flushed.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(s.opt.DrainTimeout):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("netserve: drain timed out after %s; connections force-closed", s.opt.DrainTimeout)
	}
}
