package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func dialCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// echoOnce accepts one connection and echoes everything back.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
}

func TestPipeRoundTrip(t *testing.T) {
	f := NewFabric(1)
	srv := f.Host("srv")
	ln, err := srv.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)

	conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte("asymshare"), 1000)
	go func() {
		if _, err := conn.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo mismatch")
	}
	if conn.LocalAddr().Network() != "netsim" || conn.RemoteAddr().String() != ln.Addr().String() {
		t.Fatalf("addrs: local=%v remote=%v", conn.LocalAddr(), conn.RemoteAddr())
	}
}

func TestCloseGivesEOFThenErrClosed(t *testing.T) {
	f := NewFabric(1)
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	if _, err := cli.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	// Remote drains in-flight bytes, then sees EOF.
	buf := make([]byte, 3)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read after remote close = %v, want EOF", err)
	}
	// Local reads fail with net.ErrClosed.
	if _, err := cli.Read(buf); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read after local close = %v, want net.ErrClosed", err)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	f := NewFabric(1)
	const lat = 30 * time.Millisecond
	f.SetLink("cli", "srv", LinkPolicy{Latency: lat})
	f.SetLink("srv", "cli", LinkPolicy{Latency: lat})
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)
	start := time.Now()
	conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	// Dial + one round trip crosses the link three times.
	if elapsed := time.Since(start); elapsed < 3*lat {
		t.Fatalf("round trip took %v, want >= %v", elapsed, 3*lat)
	}
}

func TestBandwidthCapShapesTransfer(t *testing.T) {
	f := NewFabric(1)
	// 64 KiB burst + 100 KiB/s: 160 KiB should need ~1s for the
	// post-burst remainder.
	f.SetLink("cli", "srv", LinkPolicy{BytesPerSec: 100 << 10})
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	var got int
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		n, _ := io.Copy(io.Discard, conn)
		got = int(n)
	}()
	conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 160<<10)
	start := time.Now()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	conn.Close()
	<-done
	if got != len(payload) {
		t.Fatalf("received %d of %d bytes", got, len(payload))
	}
	// (160-64) KiB over 100 KiB/s ≈ 0.96s; allow generous slack
	// downward for timer coarseness but catch an unshaped fast path.
	if elapsed < 500*time.Millisecond {
		t.Fatalf("160 KiB over a 100 KiB/s link took only %v", elapsed)
	}
}

func TestReadDeadline(t *testing.T) {
	f := NewFabric(1)
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _, _ = ln.Accept() }() // accept, never write
	conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline ignored")
	}
	// Clearing the deadline lets reads block again (and close unblocks).
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		conn.Close()
	}()
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read after close = %v", err)
	}
}

func TestPartitionRefusesDialsAndSeversConns(t *testing.T) {
	f := NewFabric(1)
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)
	conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	f.Partition("island", "srv")
	// Existing connection is reset.
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrSevered) {
		t.Fatalf("read across partition = %v, want ErrSevered", err)
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatal("write across partition succeeded")
	}
	// New dials are refused.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := f.Host("cli").DialContext(ctx, ln.Addr().String()); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	// Healing restores connectivity.
	f.Heal()
	c2, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c2.Close()
	if f.Events().Count("partition") == 0 {
		t.Fatal("partition events not logged")
	}
}

func TestBlackholeStallsUntilRestore(t *testing.T) {
	f := NewFabric(1)
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)
	conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	f.Blackhole("srv")
	// Writes are swallowed, reads starve until the deadline.
	if _, err := conn.Write([]byte("lost")); err != nil {
		t.Fatalf("blackholed write = %v, want silent success", err)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := conn.Read(make([]byte, 4)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackholed read = %v, want deadline exceeded", err)
	}
	// Dials block until their context gives up.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := f.Host("cli").DialContext(ctx, ln.Addr().String()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blackholed dial = %v, want deadline exceeded", err)
	}
	// After restore, fresh traffic flows (swallowed bytes stay lost).
	f.Restore("srv")
	conn.SetReadDeadline(time.Time{})
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("post-restore echo = %q", buf)
	}
}

func TestDropProbRefusesRoughlyHalf(t *testing.T) {
	f := NewFabric(7)
	f.SetLink("cli", "srv", LinkPolicy{DropProb: 0.5})
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)
	cli := f.Host("cli")
	drops := 0
	for i := 0; i < 100; i++ {
		conn, err := cli.DialContext(dialCtx(t), ln.Addr().String())
		if err != nil {
			if !errors.Is(err, ErrDropped) {
				t.Fatalf("dial %d: %v", i, err)
			}
			drops++
			continue
		}
		conn.Close()
	}
	if drops < 25 || drops > 75 {
		t.Fatalf("dropped %d of 100 dials at p=0.5", drops)
	}
	if got := f.Events().Count("dropped"); got != drops {
		t.Fatalf("logged %d drops, observed %d", got, drops)
	}
}

func TestCutAfterBytesSeversMidStream(t *testing.T) {
	f := NewFabric(1)
	f.SetLink("srv", "cli", LinkPolicy{CutAfterBytes: 1000, CutConns: 1})
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = conn.Write(make([]byte, 10_000))
			}()
		}
	}()
	// First connection is cut after ~1000 bytes.
	conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn)
	conn.Close()
	if !errors.Is(err, ErrSevered) {
		t.Fatalf("read on cut conn = %v (after %d bytes), want ErrSevered", err, n)
	}
	if n >= 10_000 {
		t.Fatalf("received %d bytes despite cut", n)
	}
	// Second connection (beyond CutConns) survives.
	conn2, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	n2, err := io.Copy(io.Discard, conn2)
	if err != nil || n2 != 10_000 {
		t.Fatalf("retry read = %d bytes, err %v", n2, err)
	}
	if cuts := f.Events().Cuts(); len(cuts) != 1 {
		t.Fatalf("cuts = %q, want 1", cuts)
	}
}

func TestListenValidation(t *testing.T) {
	f := NewFabric(1)
	h := f.Host("a")
	if _, err := h.Listen("b:0"); err == nil {
		t.Fatal("foreign host accepted")
	}
	if _, err := h.Listen("garbage"); err == nil {
		t.Fatal("unparseable address accepted")
	}
	ln, err := h.Listen("a:7777")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen("a:7777"); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	ln.Close()
	if _, err := h.Listen("a:7777"); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	// Dialing an address nobody listens on is refused.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := f.Host("cli").DialContext(ctx, "a:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestConcurrentConnsAreIsolated(t *testing.T) {
	f := NewFabric(3)
	ln, err := f.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := f.Host("cli").DialContext(dialCtx(t), ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 2048)
			go conn.Write(msg)
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("conn %d: cross-talk detected", i)
			}
		}(i)
	}
	wg.Wait()
}
