package peer_test

// Protocol-robustness tests: a peer confronted with malformed or
// out-of-order frames must fail the offending connection cleanly and
// keep serving others.

import (
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

// dialAuthed opens an authenticated user connection to the node.
func dialAuthed(t *testing.T, node *peer.Node, user *auth.Identity) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.InitiatorHandshake(conn, user, wire.RoleUser, nil); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestPeerRejectsGarbageBeforeHandshake(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 200), Store: store.NewMemory()})
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// A DATA frame where a HELLO is expected.
	if err := wire.WriteFrame(conn, wire.TypeData, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	// The peer must answer with an error or just close; either way the
	// connection dies without a successful handshake.
	f, err := wire.ReadFrame(conn)
	if err == nil && f.Type != wire.TypeError {
		t.Errorf("peer answered %s to garbage, want error/close", f.Type)
	}
	// The node still serves a well-behaved client afterwards.
	user := identity(t, 201)
	good := dialAuthed(t, node, user)
	if err := wire.WriteFrame(good, wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeerRejectsMalformedGet(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 202), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 203))
	if err := wire.WriteFrame(conn, wire.TypeGetMux, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn)
	if err == nil && f.Type != wire.TypeError {
		t.Errorf("malformed GET_MUX answered with %s", f.Type)
	}
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
	if err := wire.WriteFrame(conn, wire.TypeGet, get.Marshal()); err != nil {
		t.Fatal(err)
	}
	_, err := wire.Expect(conn, wire.TypeData)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeBadRequest {
		t.Fatalf("plain GET answered with %v, want a bad-request RemoteError", err)
	}
}

func TestPeerRejectsMalformedPut(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 204), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 205))
	// A PUT shorter than a message header kills the connection.
	if err := wire.WriteFrame(conn, wire.TypePut, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Expect(conn, wire.TypePutOK); err == nil {
		t.Error("malformed PUT acknowledged")
	}
}

func TestPeerRejectsUnexpectedFrameType(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 206), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 207))
	if err := wire.WriteFrame(conn, wire.TypeChallenge, nil); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn)
	if err == nil && f.Type != wire.TypeError {
		t.Errorf("unexpected frame answered with %s", f.Type)
	}
}

func TestPeerStopForUnknownStreamIsHarmless(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 208), Store: store.NewMemory()})
	conn := dialAuthed(t, node, identity(t, 209))
	stop := wire.Stop{FileID: 424242}
	if err := wire.WriteFrame(conn, wire.TypeStop, stop.Marshal()); err != nil {
		t.Fatal(err)
	}
	// The connection stays usable: a PUT still round-trips.
	msg := rlnc.Message{FileID: 1, MessageID: 1, Payload: []byte{1}}
	buf, err := msg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.TypePut, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Expect(conn, wire.TypePutOK); err != nil {
		t.Fatalf("PUT after stray STOP failed: %v", err)
	}
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
	conn, err := net.DialTimeout("tcp", node.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.InitiatorHandshake(conn, user, wire.RoleUser, nil); err == nil {
		t.Error("second connection handshake succeeded despite MaxConns=1")
	}

	// Releasing the first slot lets new connections through.
	if err := wire.WriteFrame(first, wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c2, err := net.DialTimeout("tcp", node.Addr().String(), time.Second)
		if err != nil {
			continue
		}
		c2.SetDeadline(time.Now().Add(2 * time.Second))
		_, err = wire.InitiatorHandshake(c2, user, wire.RoleUser, nil)
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
