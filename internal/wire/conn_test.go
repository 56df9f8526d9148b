package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// connPair returns the two ends of an in-memory connection, closed at
// cleanup.
func connPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
	})
	return ca, cb
}

func TestCallReturnsReply(t *testing.T) {
	cli, srv := connPair(t)
	go func() {
		b, err := srv.Expect(TypeList)
		if err != nil {
			t.Error(err)
			return
		}
		b.Release()
		_ = srv.Send(TypeFileList, []byte("inventory"))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := cli.Call(ctx, TypeList, nil, TypeFileList)
	if err != nil {
		t.Fatal(err)
	}
	defer reply.Release()
	if string(reply.Bytes()) != "inventory" {
		t.Fatalf("reply = %q", reply.Bytes())
	}
}

func TestCallSurfacesRemoteError(t *testing.T) {
	cli, srv := connPair(t)
	go func() {
		if b, err := srv.Expect(TypeContractPropose); err == nil {
			b.Release()
			_ = srv.Reject(CodeOverCapacity, "full")
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := cli.Call(ctx, TypeContractPropose, []byte{1}, TypeContractGrant)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeOverCapacity {
		t.Fatalf("err = %v, want RemoteError(CodeOverCapacity)", err)
	}
}

// silentRemote reads whatever arrives and never answers.
func silentRemote(c *Conn) {
	for {
		_, b, err := c.Next()
		if err != nil {
			return
		}
		b.Release()
	}
}

func TestCallHonorsDeadline(t *testing.T) {
	cli, srv := connPair(t)
	go silentRemote(srv)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cli.Call(ctx, TypeList, nil, TypeFileList)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call returned after %v", elapsed)
	}
}

func TestCallHonorsCancellation(t *testing.T) {
	cli, srv := connPair(t)
	go silentRemote(srv)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	_, err := cli.Call(ctx, TypeList, nil, TypeFileList)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancelled exchange closed the connection for good.
	if _, _, err := cli.Next(); err == nil {
		t.Fatal("read on a connection closed by its context succeeded")
	}
}

// TestUnbindKeepsConnectionUsable: a finished Call leaves no deadline
// and no watcher behind, so the connection outlives the Call's context
// (a session dialed under a short context).
func TestUnbindKeepsConnectionUsable(t *testing.T) {
	cli, srv := connPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	go func() {
		if b, err := srv.Expect(TypePut); err == nil {
			b.Release()
			_ = srv.Send(TypePutOK, nil)
		}
	}()
	reply, err := cli.Call(ctx, TypePut, []byte{1}, TypePutOK)
	if err != nil {
		t.Fatal(err)
	}
	reply.Release()
	cancel()
	time.Sleep(100 * time.Millisecond) // past the old deadline
	go func() { _ = srv.Send(TypeStop, []byte("late")) }()
	b, err := cli.Expect(TypeStop)
	if err != nil {
		t.Fatalf("connection unusable after its Call's context ended: %v", err)
	}
	b.Release()
}

// TestConnCloseGivesWindowBack: Close returns the pooled window even
// while another goroutine is blocked reading, and the connection then
// refuses reads and writes.
func TestConnCloseGivesWindowBack(t *testing.T) {
	before := DefaultPool.Live()
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	if DefaultPool.Live() != before+1 {
		t.Fatalf("live buffers %d -> %d, want one window", before, DefaultPool.Live())
	}
	read := make(chan error, 1)
	go func() {
		_, _, err := c.Next()
		read <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the read block
	c.Close()
	if err := <-read; err == nil {
		t.Fatal("blocked read survived Close")
	}
	c.Close() // idempotent
	if live := DefaultPool.Live(); live != before {
		t.Fatalf("live buffers %d after Close, want %d", live, before)
	}
	if _, _, err := c.Next(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Next after Close = %v, want net.ErrClosed", err)
	}
	if err := c.Send(TypeBye, nil); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Send after Close = %v, want net.ErrClosed", err)
	}
}

// TestConnSteadyStateAllocs: the Conn layer — its locks, the window,
// the arena in it — adds no allocation to reading or writing a frame.
func TestConnSteadyStateAllocs(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 64; i++ {
		if err := WriteFrame(&stream, TypeData, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	in := bytes.NewReader(stream.Bytes())
	c := NewConn(&streamConn{in: in, out: io.Discard})
	defer c.Close()
	small, big := make([]byte, 64), make([]byte, 16<<10)
	cycle := func() {
		if _, err := in.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			_, b, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
		}
		for _, p := range [][]byte{nil, small, big} {
			if err := c.Send(TypeData, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm the pool
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("steady-state Conn read and write allocate %v times per cycle, want 0", n)
	}
}
