package client_test

// Regression tests for the dial-timeout fix. The original client used
// a zero-value net.Dialer with no handshake deadline: a peer whose
// kernel accepted the connection but whose process never spoke (hung,
// wedged, or SYN-backlogged) stalled a fetch forever unless
// the caller remembered to attach a context deadline. These tests fail
// against that behaviour and pin the fix: DialTimeout bounds dial plus
// handshake even on a deadline-free context.

import (
	"context"
	"net"
	"testing"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// neverAcceptListener binds a real TCP port and lets connections pile
// up in the kernel backlog without ever serving the handshake — the
// wedged-peer case the zero-value dialer hung on.
func neverAcceptListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestFetchTimesOutOnUnresponsivePeer(t *testing.T) {
	ln := neverAcceptListener(t)

	c, err := client.NewWith(identity(t, 1), nil, client.Options{
		DialTimeout: 300 * time.Millisecond,
		PeerRetries: -1, // isolate the dial bound from retry behaviour
	})
	if err != nil {
		t.Fatal(err)
	}
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), 4, 64, 200)
	if err != nil {
		t.Fatal(err)
	}

	// Deliberately no context deadline: the client must bound the
	// attempt on its own.
	start := time.Now()
	_, _, err = c.Fetch(context.Background(), client.FetchRequest{Peers: []string{ln.Addr().String()},
		Params: params, FileID: 7, Secret: testSecret(), Digests: map[uint64]rlnc.Digest{}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch from a never-responding peer succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("fetch took %v; DialTimeout=300ms should have cut it off", elapsed)
	}
}

func TestDisseminateTimesOutOnUnresponsivePeer(t *testing.T) {
	ln := neverAcceptListener(t)

	c, err := client.NewWith(identity(t, 1), nil, client.Options{
		DialTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.Disseminate(context.Background(), ln.Addr().String(), nil)
	if err == nil {
		t.Fatal("disseminate to a never-responding peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("disseminate took %v; DialTimeout=300ms should have cut it off", elapsed)
	}
}
