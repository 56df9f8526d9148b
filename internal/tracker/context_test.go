package tracker

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"asymshare/internal/transport"
)

// silentTracker accepts connections and never answers: a wedged
// tracker that only the caller's context can get a lookup away from.
func silentTracker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held <- conn
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for {
			select {
			case conn := <-held:
				conn.Close()
			default:
				return
			}
		}
	})
	return ln.Addr().String()
}

// TestLookupViaHonorsCancellation: a lookup against a silent tracker
// returns as soon as its context is cancelled, long before the
// context's deadline.
func TestLookupViaHonorsCancellation(t *testing.T) {
	addr := silentTracker(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := LookupVia(ctx, transport.Default, addr, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("lookup of a silent tracker = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled lookup returned after %v", elapsed)
	}
}

// BenchmarkLookupVia measures one LookupVia round trip over loopback
// TCP against an in-process tracker, allocations of both ends
// included: with a context that never ends, and with a per-lookup
// deadline, whose cancellation watch the exchange must register.
func BenchmarkLookupVia(b *testing.B) {
	s := NewServer(0)
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr().String()
	if err := Announce(context.Background(), addr, 7, "peer:7070", 0); err != nil {
		b.Fatal(err)
	}
	lookup := func(b *testing.B, ctx context.Context) {
		got, err := LookupVia(ctx, transport.Default, addr, 7)
		if err != nil || len(got) != 1 {
			b.Fatalf("lookup = %v, %v", got, err)
		}
	}
	b.Run("background", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lookup(b, context.Background())
		}
	})
	b.Run("deadline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			lookup(b, ctx)
			cancel()
		}
	})
}
