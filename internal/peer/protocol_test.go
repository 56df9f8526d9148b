package peer_test

// Protocol-robustness tests: a peer confronted with malformed or
// out-of-order frames must fail the offending connection cleanly and
// keep serving others.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// dialConn opens a framed TCP connection to the node whose reads and
// writes fail after timeout.
func dialConn(t *testing.T, node *peer.Node, timeout time.Duration) *wire.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// dialAuthed opens an authenticated user connection to the node.
func dialAuthed(t *testing.T, node *peer.Node, user *auth.Identity) *wire.Conn {
	t.Helper()
	conn := dialConn(t, node, 10*time.Second)
	if _, err := wire.InitiatorHandshake(timeoutCtx(t), conn, user, wire.RoleUser, nil); err != nil {
		t.Fatal(err)
	}
	return conn
}

// timeoutCtx bounds one exchange of a test.
func timeoutCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// expectRejected reads the peer's answer to a bad frame: an ERROR frame
// or a close, never a reply.
func expectRejected(t *testing.T, conn *wire.Conn, what string) {
	t.Helper()
	defer conn.Bind(timeoutCtx(t)).Unbind()
	ty, b, err := conn.Next()
	if err == nil {
		b.Release()
		if ty != wire.TypeError {
			t.Errorf("peer answered %s to %s, want error/close", ty, what)
		}
	}
}

func TestPeerRejectsGarbageBeforeHandshake(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 200), Store: store.NewMemory()})
	conn := dialConn(t, node, 5*time.Second)
	// A DATA frame where a HELLO is expected.
	if err := conn.Send(wire.TypeData, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	// The peer must answer with an error or just close; either way the
	// connection dies without a successful handshake.
	expectRejected(t, conn, "garbage")
	// The node still serves a well-behaved client afterwards.
	user := identity(t, 201)
	good := dialAuthed(t, node, user)
	if err := good.Send(wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeerRejectsMalformedGet(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 202), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 203))
	if err := conn.Send(wire.TypeGetMux, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	expectRejected(t, conn, "a malformed GET_MUX")
}

// TestPeerRefusesPlainGet: downloads are GET_MUX streams only. A
// well-formed plain GET for a stored file is refused with a typed
// error frame, never served.
func TestPeerRefusesPlainGet(t *testing.T) {
	st := store.NewMemory()
	if err := st.Put(&rlnc.Message{FileID: 9, MessageID: 1, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	node := startPeer(t, peer.Config{Identity: identity(t, 210), Store: st})
	conn := dialAuthed(t, node, identity(t, 211))
	get := wire.Get{FileID: 9}
	_, err := conn.Call(timeoutCtx(t), wire.TypeGet, get.Marshal(), wire.TypeData)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeBadRequest {
		t.Fatalf("plain GET answered with %v, want a bad-request RemoteError", err)
	}
}

func TestPeerRejectsMalformedPut(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 204), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 205))
	// A PUT shorter than a message header kills the connection.
	if _, err := conn.Call(timeoutCtx(t), wire.TypePut, []byte{1, 2}, wire.TypePutOK); err == nil {
		t.Error("malformed PUT acknowledged")
	}
}

func TestPeerRejectsUnexpectedFrameType(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 206), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 207))
	if err := conn.Send(wire.TypeChallenge, nil); err != nil {
		t.Fatal(err)
	}
	expectRejected(t, conn, "an unexpected frame")
}

func TestPeerStopForUnknownStreamIsHarmless(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 208), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 209))
	stop := wire.Stop{FileID: 424242}
	if err := conn.Send(wire.TypeStop, stop.Marshal()); err != nil {
		t.Fatal(err)
	}
	// The connection stays usable: a PUT still round-trips.
	msg := rlnc.Message{FileID: 1, MessageID: 1, Payload: []byte{1}}
	buf, err := msg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Call(timeoutCtx(t), wire.TypePut, buf, wire.TypePutOK)
	if err != nil {
		t.Fatalf("PUT after stray STOP failed: %v", err)
	}
	reply.Release()
}

func TestMaxConnsSheds(t *testing.T) {
	node := startPeer(t, peer.Config{
		Identity: identity(t, 210),
		Store:    store.NewMemory(),
		MaxConns: 1,
	})
	user := identity(t, 211)
	// First connection occupies the only slot.
	first := dialAuthed(t, node, user)
	_ = first

	// Second connection is shed: the handshake cannot complete.
	conn := dialConn(t, node, 3*time.Second)
	if _, err := wire.InitiatorHandshake(timeoutCtx(t), conn, user, wire.RoleUser, nil); err == nil {
		t.Error("second connection handshake succeeded despite MaxConns=1")
	}

	// Releasing the first slot lets new connections through.
	if err := first.Send(wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		nc, err := net.DialTimeout("tcp", node.Addr().String(), time.Second)
		if err != nil {
			continue
		}
		c2 := wire.NewConn(nc)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err = wire.InitiatorHandshake(ctx, c2, user, wire.RoleUser, nil)
		cancel()
		c2.Close()
		if err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Error("slot was never released after BYE")
}

func TestPeerFrameSizeLimitEnforced(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 212), Store: store.NewMemory()})
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Forge a frame header announcing an absurd size; the peer must
	// drop the connection rather than allocate.
	hdr := []byte{byte(wire.TypeHello), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 64)
	n, _ := conn.Read(buf)
	// Any response must be an error frame or a close, never a CHALLENGE.
	if n >= 1 && wire.Type(buf[0]) == wire.TypeChallenge {
		t.Error("peer proceeded with handshake after oversize frame header")
	}
}
