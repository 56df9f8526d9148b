package wire

// Conn is the one framed connection every protocol runs on: the peer
// protocol and its handshake, the tracker, the DHT and gossip. It owns
// the network connection, its single FrameReader and its single
// FrameWriter, so there is no second way to read or write a frame on
// a connection:
//
//   - Reads (Next, Expect) come from one goroutine at a time through the
//     reader's fill window. The window, with the writer's arena at its
//     tail, is drawn from DefaultPool and given back on Close.
//   - Writes (Send, Reject, or a LockWriter batch) all go through the
//     write lock, so a control reply can never land between the header
//     and the payload of a DATA frame another goroutine is flushing.
//   - Bind ties the connection to a context; Call is the one
//     request/reply exchange, bound to its context.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Conn is one framed connection. Create it with NewConn around a
// freshly dialed or accepted net.Conn and Close it when done.
type Conn struct {
	nc  net.Conn
	rmu sync.Mutex // held across each read
	wmu sync.Mutex // held across each write
	b   *connBufs  // nil once closed; set under both locks
}

// connBufs is what a Conn draws at NewConn and gives back on Close: the
// window from DefaultPool — the reader's fill buffer, with the writer's
// arena at its tail — and the reader and writer state that use it, so
// a one-shot exchange costs one small allocation.
type connBufs struct {
	win *Buf
	fr  FrameReader
	fw  FrameWriter
}

var connBufsPool = sync.Pool{New: func() any { return new(connBufs) }}

// connArena is the tail of a Conn's window that starts out as its
// writer's arena, so a connection's control frames are framed without
// allocating; a batch that outgrows it moves to the heap.
const connArena = 4 << 10

// NewConn wraps nc. The caller hands nc over: from now on it is read,
// written and closed only through the Conn.
func NewConn(nc net.Conn) *Conn {
	b := connBufsPool.Get().(*connBufs)
	b.win = DefaultPool.Get(frameReaderWindow)
	w := b.win.Bytes()
	split := len(w) - connArena
	b.fr = FrameReader{r: nc, pool: DefaultPool, buf: w[:split:split]}
	b.fw.w, b.fw.pool, b.fw.arena = nc, DefaultPool, w[split:split]
	return &Conn{nc: nc, b: b}
}

// release returns the window and the reader and writer state for reuse
// by a later Conn.
func (b *connBufs) release() {
	b.win.Release()
	vecs := b.fw.vecs[:0]
	clear(vecs[:cap(vecs)])
	*b = connBufs{}
	b.fw.vecs = vecs
	connBufsPool.Put(b)
}

// RemoteAddr returns the remote network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Next reads one frame, with FrameReader.Next's ownership rule. After
// Close it returns net.ErrClosed.
func (c *Conn) Next() (Type, *Buf, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.b == nil {
		return 0, nil, net.ErrClosed
	}
	return c.b.fr.Next()
}

// Expect reads one frame and verifies its type, translating an ERROR
// frame into *RemoteError. The returned buffer follows Next's ownership
// rule.
func (c *Conn) Expect(want Type) (*Buf, error) {
	t, b, err := c.Next()
	if err != nil {
		return nil, err
	}
	if t == TypeError {
		var e ErrorMsg
		uerr := e.Unmarshal(b.Bytes())
		b.Release()
		if uerr != nil {
			return nil, fmt.Errorf("%w: undecodable remote error", ErrBadFrame)
		}
		return nil, &RemoteError{Code: e.Code, Reason: e.Reason}
	}
	if t != want {
		b.Release()
		return nil, fmt.Errorf("%w: got %s, want %s", ErrUnexpectedFrame, t, want)
	}
	return b, nil
}

// Send writes one frame and flushes it.
func (c *Conn) Send(t Type, payload []byte) error {
	fw, err := c.LockWriter()
	if err != nil {
		return fmt.Errorf("wire: write %s: %w", t, err)
	}
	defer c.UnlockWriter()
	if err := fw.Queue(t, payload); err != nil {
		return err
	}
	return fw.Flush()
}

// Reject sends a terminal ERROR frame. The exchange has failed whatever
// Reject returns, and the caller must close the connection after it:
// the frame only lets a well-behaved remote report a typed
// *RemoteError instead of a bare EOF. The write error is returned for
// callers that want to log it.
func (c *Conn) Reject(code uint16, reason string) error {
	msg := ErrorMsg{Code: code, Reason: reason}
	return c.Send(TypeError, msg.Marshal())
}

// LockWriter takes the write lock and returns the connection's writer,
// for a caller that batches several frames into one flush. The caller
// must Flush what it queued before UnlockWriter. Once the connection is
// closed it returns net.ErrClosed, without the lock held.
func (c *Conn) LockWriter() (*FrameWriter, error) {
	c.wmu.Lock()
	if c.b == nil {
		c.wmu.Unlock()
		return nil, net.ErrClosed
	}
	return &c.b.fw, nil
}

// UnlockWriter releases the write lock taken by LockWriter.
func (c *Conn) UnlockWriter() { c.wmu.Unlock() }

// Close closes the network connection, which unblocks any read or
// write in progress, then gives the window back once the reader and
// the writer have let go of it. Safe to call more than once and from
// any goroutine.
func (c *Conn) Close() error {
	err := c.nc.Close()
	c.rmu.Lock()
	c.wmu.Lock()
	b := c.b
	c.b = nil
	c.wmu.Unlock()
	c.rmu.Unlock()
	if b != nil {
		b.release()
	}
	return err
}

// Binding is a connection's tie to a context, ended by Unbind.
type Binding struct {
	nc   net.Conn
	stop func() bool
}

// Bind ties the connection to ctx until Unbind: ctx's deadline, if any,
// becomes the connection's read and write deadline, and the end of ctx
// closes the network connection, so a silent or wedged remote holds a
// read or write for no longer than ctx lives.
func (c *Conn) Bind(ctx context.Context) Binding {
	deadline, _ := ctx.Deadline()
	_ = c.nc.SetDeadline(deadline)
	b := Binding{nc: c.nc}
	if ctx.Done() != nil {
		nc := c.nc
		b.stop = context.AfterFunc(ctx, func() { nc.Close() })
	}
	return b
}

// Unbind ends the binding and clears the deadline. It reports false
// when the context has already closed the connection.
func (b Binding) Unbind() bool {
	if b.stop != nil && !b.stop() {
		return false
	}
	_ = b.nc.SetDeadline(time.Time{})
	return true
}

// Call is the one request/reply exchange: it sends a frame of type t
// and reads the reply, which must be of type want (an ERROR frame
// surfaces as *RemoteError). The exchange is bound to ctx (see Bind),
// and a failure after ctx has ended returns ctx's error. The reply
// buffer follows FrameReader.Next's ownership rule.
func (c *Conn) Call(ctx context.Context, t Type, payload []byte, want Type) (*Buf, error) {
	bound := c.Bind(ctx)
	err := c.Send(t, payload)
	var reply *Buf
	if err == nil {
		reply, err = c.Expect(want)
	}
	if !bound.Unbind() && err == nil {
		// ctx ended as the reply arrived and has closed the connection.
		reply.Release()
		err = net.ErrClosed
	}
	if err != nil {
		return nil, boundErr(ctx, err)
	}
	return reply, nil
}

// boundErr attributes a failed bound exchange to its context once the
// context has ended. A deadline error means the context's own deadline
// has passed, so its Done is at most a timer tick away.
func boundErr(ctx context.Context, err error) error {
	if _, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) {
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}
