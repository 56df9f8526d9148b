// Package transport defines the network seam between the protocol
// stack (peer, client, tracker) and the medium it runs over. The
// default implementation is real TCP; internal/netsim provides an
// in-memory fabric with injectable latency, bandwidth caps, drops and
// partitions so the same wire code can be driven deterministically
// under go test -race.
package transport

import (
	"context"
	"errors"
	"net"
	"time"
)

// Transport opens listeners and outbound connections. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Listen binds addr (host:port, port 0 for ephemeral) and returns
	// a listener whose Addr().String() is dialable via DialContext.
	Listen(addr string) (net.Listener, error)

	// DialContext opens a connection to addr, honoring ctx
	// cancellation and deadline for the connection-establishment
	// phase.
	DialContext(ctx context.Context, addr string) (net.Conn, error)
}

// TCP is the production transport: plain TCP over the real network.
type TCP struct{}

// Listen binds a TCP listener.
func (TCP) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// DialContext opens a TCP connection.
func (TCP) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// Default is the transport used when a component's configuration
// leaves the transport nil.
var Default Transport = TCP{}

// Accept-loop backoff bounds. A transient accept failure (EMFILE,
// ECONNABORTED, momentary stack trouble) must not stop a server: Accept
// sleeps an exponentially growing, capped interval and tries again.
const (
	acceptBackoffStart = 5 * time.Millisecond
	acceptBackoffMax   = time.Second
)

// nextAcceptBackoff returns the delay after one more consecutive
// accept failure: start on the first failure, doubling up to the cap.
func nextAcceptBackoff(cur time.Duration) time.Duration {
	if cur <= 0 {
		return acceptBackoffStart
	}
	return min(2*cur, acceptBackoffMax)
}

// Accept returns ln's next connection, retrying failed accepts after a
// capped exponential backoff, so one transient error does not end the
// caller's accept loop. onRetry, if non-nil, sees each failure and the
// delay before the next try. Accept gives up only once ln is closed or
// done is closed, and then returns net.ErrClosed.
func Accept(ln net.Listener, done <-chan struct{}, onRetry func(err error, delay time.Duration)) (net.Conn, error) {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil {
			return conn, nil
		}
		if errors.Is(err, net.ErrClosed) {
			return nil, err
		}
		select {
		case <-done:
			return nil, net.ErrClosed
		default:
		}
		backoff = nextAcceptBackoff(backoff)
		if onRetry != nil {
			onRetry(err, backoff)
		}
		timer := time.NewTimer(backoff)
		select {
		case <-done:
			timer.Stop()
			return nil, net.ErrClosed
		case <-timer.C:
		}
	}
}
