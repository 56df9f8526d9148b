package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestNextAcceptBackoff(t *testing.T) {
	steps := []time.Duration{
		acceptBackoffStart,
		2 * acceptBackoffStart,
		4 * acceptBackoffStart,
	}
	cur := time.Duration(0)
	for i, want := range steps {
		cur = nextAcceptBackoff(cur)
		if cur != want {
			t.Fatalf("step %d = %v, want %v", i, cur, want)
		}
	}
	// The backoff saturates at the cap no matter how long failures
	// persist.
	for i := 0; i < 20; i++ {
		cur = nextAcceptBackoff(cur)
	}
	if cur != acceptBackoffMax {
		t.Fatalf("saturated backoff = %v, want %v", cur, acceptBackoffMax)
	}
	// A success resets the caller's state to zero; the next failure
	// starts small again.
	if got := nextAcceptBackoff(0); got != acceptBackoffStart {
		t.Fatalf("post-reset backoff = %v, want %v", got, acceptBackoffStart)
	}
}

// flakyListener fails its first Accept with a transient error (the
// EMFILE a busy server sees) and then hands out its one connection;
// after that it behaves as closed.
type flakyListener struct {
	mu    sync.Mutex
	calls int
	conn  net.Conn
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls++
	switch l.calls {
	case 1:
		return nil, errors.New("accept: too many open files")
	case 2:
		return l.conn, nil
	}
	return nil, net.ErrClosed
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return nil }

// TestAcceptRetriesTransientError: one failed Accept is retried after
// the first backoff step and the next connection is returned; only a
// closed listener ends the loop.
func TestAcceptRetriesTransientError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ln := &flakyListener{conn: a}
	var retries []time.Duration
	conn, err := Accept(ln, nil, func(err error, delay time.Duration) {
		retries = append(retries, delay)
	})
	if err != nil || conn != a {
		t.Fatalf("Accept = %v, %v; want the listener's connection", conn, err)
	}
	if len(retries) != 1 || retries[0] != acceptBackoffStart {
		t.Fatalf("retries = %v, want one after %v", retries, acceptBackoffStart)
	}
	if _, err := Accept(ln, nil, nil); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept on a closed listener = %v, want net.ErrClosed", err)
	}
}

// TestAcceptStopsOnDone: a listener that keeps failing holds Accept
// only until done is closed.
func TestAcceptStopsOnDone(t *testing.T) {
	ln := &failingListener{}
	done := make(chan struct{})
	time.AfterFunc(50*time.Millisecond, func() { close(done) })
	if _, err := Accept(ln, done, nil); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after done = %v, want net.ErrClosed", err)
	}
}

type failingListener struct{}

func (failingListener) Accept() (net.Conn, error) { return nil, errors.New("accept: transient") }
func (failingListener) Close() error              { return nil }
func (failingListener) Addr() net.Addr            { return nil }
