package peer_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"asymshare/internal/netsim"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

// TestErrorFrameNeverSplitsADataFrame: a malformed STOP arrives while a
// stream on the same connection is mid-flush. The peer's ERROR reply
// must wait for the flush instead of landing between a DATA frame's
// header and its payload, so the client parses every frame it
// receives. The fabric's connections have no vectored write — a flush
// is one Write per span, a 21-byte header span then a 1-byte payload
// span per message — and the peer's shaped link keeps each flush in
// progress long enough for the STOP to arrive inside one.
func TestErrorFrameNeverSplitsADataFrame(t *testing.T) {
	const fileID, count, size = 7, 20000, 1
	f := netsim.NewFabric(1)
	f.SetLink("peer", "user", netsim.LinkPolicy{BytesPerSec: 1 << 20})
	st := store.NewMemory()
	for i := 0; i < count; i++ {
		msg := &rlnc.Message{FileID: fileID, MessageID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, size)}
		if err := st.Put(msg); err != nil {
			t.Fatal(err)
		}
	}
	node, err := peer.New(peer.Config{Identity: identity(t, 230), Store: st, Transport: f.Host("peer")})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start("peer:7000"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nc, err := f.Host("user").DialContext(ctx, node.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	defer conn.Bind(ctx).Unbind()
	if _, err := wire.InitiatorHandshake(ctx, conn, identity(t, 231), wire.RoleUser, nil); err != nil {
		t.Fatal(err)
	}
	get := wire.Get{FileID: fileID}
	if err := conn.Send(wire.TypeGetMux, get.Marshal()); err != nil {
		t.Fatal(err)
	}

	data, sawError := 0, false
	for {
		ty, b, err := conn.Next()
		if err != nil {
			// The peer hangs up after its ERROR frame, which may cut
			// the frame a stream was writing: a torn last frame is a
			// clean end, a frame that parses into garbage is not.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, net.ErrClosed) {
				t.Fatalf("read after %d DATA frames: %v", data, err)
			}
			break
		}
		switch ty {
		case wire.TypeData:
			var msg rlnc.Message
			uerr := msg.UnmarshalBinary(b.Bytes())
			if uerr != nil || msg.FileID != fileID || msg.MessageID != uint64(data) ||
				!bytes.Equal(msg.Payload, bytes.Repeat([]byte{byte(data)}, size)) {
				t.Fatalf("DATA frame %d is not message %d of file %d: %x (%v)",
					data, data, fileID, b.Bytes(), uerr)
			}
			data++
			if data == 1 {
				// The stream is flushing its first batch: a STOP too
				// short to parse is a connection fault.
				if err := conn.Send(wire.TypeStop, []byte{1, 2, 3}); err != nil {
					t.Fatal(err)
				}
			}
		case wire.TypeError:
			sawError = true
		case wire.TypeStop:
		default:
			t.Fatalf("unexpected %s frame after %d DATA frames", ty, data)
		}
		b.Release()
	}
	if !sawError {
		t.Errorf("no ERROR frame answered the malformed STOP (%d DATA frames read)", data)
	}
}
