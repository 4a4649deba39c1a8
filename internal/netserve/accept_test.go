package netserve

import (
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// flakyListener fails its first fails Accept calls with err, then hands
// out the connections pushed into conns until Close.
type flakyListener struct {
	mu    sync.Mutex
	fails int
	err   error
	calls int

	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newFlakyListener(fails int, err error) *flakyListener {
	return &flakyListener{fails: fails, err: err, conns: make(chan net.Conn, 1), closed: make(chan struct{})}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.calls++
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, l.err
	}
	l.mu.Unlock()
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func (l *flakyListener) acceptCalls() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls
}

// emfile is the accept error of a process out of file descriptors.
var emfile = &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}

// serveAsync runs srv.Serve(ln) and returns the channel its error
// arrives on.
func serveAsync(srv *Server, ln net.Listener) <-chan error {
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return done
}

func waitServe(t *testing.T, done <-chan error, within time.Duration) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(within):
		t.Fatalf("Serve did not return within %s", within)
		return nil
	}
}

// TestAcceptRetriesTemporaryErrors pins the fd-exhaustion fix: EMFILE
// from Accept pauses the loop with backoff instead of ending Serve, the
// connection accepted afterwards is served, and Close still ends Serve
// with nil.
func TestAcceptRetriesTemporaryErrors(t *testing.T) {
	const fails = 4
	ln := newFlakyListener(fails, emfile)
	srv := NewServerInto(echoHandler, Options{})
	done := serveAsync(srv, ln)

	client, server := net.Pipe()
	defer client.Close()
	ln.conns <- server
	req, err := EncodeRequest(testQueries(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := newPooledConn(client).roundTrip(req, 5*time.Second)
	if err != nil || len(rs) != 3 {
		t.Fatalf("batch after %d accept failures: %v (%d results)", fails, err, len(rs))
	}
	if c := ln.acceptCalls(); c < fails+1 {
		t.Fatalf("Accept called %d times, want at least %d", c, fails+1)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := waitServe(t, done, 5*time.Second); err != nil {
		t.Fatalf("Serve after Close = %v, want nil", err)
	}
}

// TestAcceptBackoffEndsOnClose pins that a server backing off from a
// listener that keeps failing still stops promptly on Close: the
// backoff wait wakes on Close instead of sleeping out its delay. After
// seven failures the delay has doubled to 320 ms.
func TestAcceptBackoffEndsOnClose(t *testing.T) {
	ln := newFlakyListener(1<<30, emfile)
	srv := NewServerInto(echoHandler, Options{})
	done := serveAsync(srv, ln)
	deadline := time.Now().Add(5 * time.Second)
	for ln.acceptCalls() < 7 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := waitServe(t, done, 5*time.Second); err != nil {
		t.Fatalf("Serve after Close = %v, want nil", err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("Serve took %s to stop after Close, want it to skip the backoff wait", d)
	}
}

// TestAcceptFatalErrorReturned pins the other side: an accept error
// that is not temporary still ends Serve with that error.
func TestAcceptFatalErrorReturned(t *testing.T) {
	fatal := errors.New("listener broke")
	ln := newFlakyListener(1, fatal)
	srv := NewServerInto(echoHandler, Options{})
	defer srv.Close()
	if err := waitServe(t, serveAsync(srv, ln), 5*time.Second); !errors.Is(err, fatal) {
		t.Fatalf("Serve = %v, want %v", err, fatal)
	}
}
