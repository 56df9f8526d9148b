package netsim

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"asymshare/internal/ratelimit"
)

// ErrSevered is the error surfaced by reads and writes on a
// connection the fabric cut mid-stream (scheduled cut or partition) —
// the in-memory analogue of a TCP reset.
var ErrSevered = errors.New("netsim: connection reset by link fault")

// ErrDropped is returned by dials the link model refused.
var ErrDropped = errors.New("netsim: connection dropped by link model")

// simAddr is a fabric address.
type simAddr struct{ hostport string }

func (a simAddr) Network() string { return "netsim" }
func (a simAddr) String() string  { return a.hostport }

// segment is one delivered write, visible to the reader at readyAt.
type segment struct {
	data    []byte
	readyAt time.Time
}

// endpoint is the receiving half of one connection direction.
type endpoint struct {
	mu           sync.Mutex
	wake         chan struct{} // closed-and-replaced to broadcast changes
	queue        []segment
	leftover     []byte
	readDeadline time.Time
	eof          bool  // remote closed orderly: EOF once drained
	closed       bool  // local close
	severed      error // link fault: immediate error, queued data lost
}

func newEndpoint() *endpoint {
	return &endpoint{wake: make(chan struct{})}
}

func (e *endpoint) signalLocked() {
	close(e.wake)
	e.wake = make(chan struct{})
}

func (e *endpoint) enqueue(data []byte, readyAt time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.eof || e.severed != nil {
		return // receiver gone; bytes vanish like on a dead socket
	}
	e.queue = append(e.queue, segment{data: data, readyAt: readyAt})
	e.signalLocked()
}

func (e *endpoint) setEOF() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eof = true
	e.signalLocked()
}

func (e *endpoint) closeLocal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.signalLocked()
}

func (e *endpoint) sever(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.severed == nil {
		e.severed = err
	}
	e.signalLocked()
}

func (e *endpoint) setReadDeadline(t time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.readDeadline = t
	e.signalLocked()
}

// read implements the blocking receive: leftover bytes first, then
// queued segments once their delivery time arrives, honoring the read
// deadline, local close, link sever and remote EOF.
func (e *endpoint) read(b []byte) (int, error) {
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return 0, net.ErrClosed
		}
		if len(e.leftover) > 0 {
			n := copy(b, e.leftover)
			e.leftover = e.leftover[n:]
			e.mu.Unlock()
			return n, nil
		}
		if e.severed != nil {
			err := e.severed
			e.mu.Unlock()
			return 0, err
		}
		now := time.Now()
		wait := time.Duration(-1)
		if len(e.queue) > 0 {
			seg := e.queue[0]
			if w := seg.readyAt.Sub(now); w <= 0 {
				e.queue = e.queue[1:]
				e.leftover = seg.data
				e.mu.Unlock()
				continue
			} else {
				wait = w
			}
		} else if e.eof {
			e.mu.Unlock()
			return 0, io.EOF
		}
		if !e.readDeadline.IsZero() {
			dl := e.readDeadline.Sub(now)
			if dl <= 0 {
				e.mu.Unlock()
				return 0, os.ErrDeadlineExceeded
			}
			if wait < 0 || dl < wait {
				wait = dl
			}
		}
		wake := e.wake
		e.mu.Unlock()
		if wait >= 0 {
			timer := time.NewTimer(wait)
			select {
			case <-wake:
			case <-timer.C:
			}
			timer.Stop()
		} else {
			<-wake
		}
	}
}

// Conn is one side of a fabric connection. It implements net.Conn.
type Conn struct {
	fabric  *Fabric
	key     dirKey // write direction: local host -> remote host
	ordinal int64  // dial ordinal on the originating link
	local   simAddr
	remote  simAddr
	in      *endpoint
	out     *endpoint
	pair    *pair

	ctx    context.Context
	cancel context.CancelFunc

	wmu           sync.Mutex // serializes writes
	rng           *rand.Rand // per-direction, guarded by wmu
	bucket        *ratelimit.Bucket
	sent          int64
	writeDeadline time.Time

	closeOnce sync.Once
}

// pair ties the two sides of a connection so partitions can sever
// both at once.
type pair struct {
	key  dirKey // the dial link that created the pair
	a, b *Conn
}

func (p *pair) sever(err error) {
	p.a.in.sever(err)
	p.b.in.sever(err)
	p.a.cancel()
	p.b.cancel()
}

func (c *Conn) Read(b []byte) (int, error) { return c.in.read(b) }
func (c *Conn) LocalAddr() net.Addr        { return c.local }
func (c *Conn) RemoteAddr() net.Addr       { return c.remote }
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	return nil
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.writeDeadline = t
	return nil
}

func (c *Conn) SetDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// Close tears down this side: local reads fail immediately, the
// remote sees EOF once it has drained in-flight segments.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.cancel()
		c.in.closeLocal()
		c.out.setEOF()
		c.fabric.removePair(c.pair)
	})
	return nil
}

// Write shapes, delays and delivers b toward the remote endpoint,
// splitting large writes into segments so bandwidth caps smooth the
// stream instead of stalling it.
func (c *Conn) Write(b []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	total := 0
	for len(b) > 0 {
		n := len(b)
		if n > segmentSize {
			n = segmentSize
		}
		if err := c.writeSegment(b[:n]); err != nil {
			return total, err
		}
		total += n
		b = b[n:]
	}
	return total, nil
}

// writeSegment applies the live link model to one segment: partition
// and blackhole state, token-bucket shaping, scheduled cuts, and
// latency+jitter delivery. Callers hold wmu.
func (c *Conn) writeSegment(seg []byte) error {
	if err := c.ctx.Err(); err != nil {
		if c.in.severedErr() != nil {
			return c.in.severedErr()
		}
		return net.ErrClosed
	}
	f := c.fabric
	pol, crossing, blackholed := f.linkStatus(c.key)
	if crossing {
		f.events.add(c.key.String(), "conn#%d severed: partition", c.ordinal)
		c.pair.sever(ErrSevered)
		return ErrSevered
	}
	if blackholed {
		return nil // swallowed: the sender cannot tell
	}
	if pol.BytesPerSec > 0 {
		if c.bucket == nil {
			c.bucket = ratelimit.NewBucket(pol.BytesPerSec, pol.burst())
		} else if c.bucket.Rate() != pol.BytesPerSec {
			c.bucket.SetRate(pol.BytesPerSec)
		}
		wctx := c.ctx
		if !c.writeDeadline.IsZero() {
			var cancel context.CancelFunc
			wctx, cancel = context.WithDeadline(c.ctx, c.writeDeadline)
			defer cancel()
		}
		if err := c.bucket.WaitN(wctx, len(seg)); err != nil {
			if c.ctx.Err() != nil {
				return net.ErrClosed
			}
			return os.ErrDeadlineExceeded
		}
	}
	if pol.cuts(c.ordinal) && c.sent+int64(len(seg)) > pol.CutAfterBytes {
		f.events.addCut(c.key.String(), "conn#%d cut after %d bytes", c.ordinal, c.sent)
		c.pair.sever(ErrSevered)
		return ErrSevered
	}
	c.sent += int64(len(seg))
	data := append([]byte(nil), seg...)
	c.out.enqueue(data, time.Now().Add(pol.delay(c.rng)))
	return nil
}

func (e *endpoint) severedErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.severed
}

var _ net.Conn = (*Conn)(nil)
