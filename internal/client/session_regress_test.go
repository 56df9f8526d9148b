package client

// Regression (ISSUE 10 satellite): a PeerSession receiving STREAM_ERROR
// twice for the same stream, or for a stream id it never opened, must
// neither panic nor leak pooled wire.Bufs. White-box: the session is
// built directly over a net.Pipe so the test controls every frame.

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// pipeSession builds a PeerSession over an in-memory pipe, skipping
// dial and handshake, and starts its demux loop. The returned conn is
// the fake peer's end.
func pipeSession(t *testing.T) (*PeerSession, *wire.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	c := &Client{opt: Options{}.withDefaults()}
	c.health = newHealthRegistry(&c.m, c.opt)
	s := &PeerSession{
		c:           c,
		addr:        "pipe",
		conn:        wire.NewConn(cli),
		fingerprint: "pipe-peer",
		streams:     make(map[uint64]*sessStream),
		closed:      make(chan struct{}),
	}
	go s.demux()
	peer := wire.NewConn(srv)
	t.Cleanup(func() {
		peer.Close()
		s.Close()
	})
	return s, peer
}

func writeStreamError(t *testing.T, peer *wire.Conn, fileID uint64, code uint16) {
	t.Helper()
	se := wire.StreamError{FileID: fileID, Code: code, Reason: "test"}
	if err := peer.Send(wire.TypeStreamError, se.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func sendBusy(t *testing.T, peer *wire.Conn, fileID uint64, code uint16, retryAfterMillis uint32, reason string) {
	t.Helper()
	b := wire.Busy{FileID: fileID, Code: code, RetryAfterMillis: retryAfterMillis, Reason: reason}
	if err := peer.Send(wire.TypeBusy, b.Marshal()); err != nil {
		t.Error(err)
	}
}

func TestSessionDuplicateStreamErrorNoPanicNoLeak(t *testing.T) {
	before := wire.DefaultPool.Live()

	s, srv := pipeSession(t)
	const fileID = 7
	st := &sessStream{
		fileID: fileID,
		frames: make(chan *wire.Buf, sessStreamBuffer),
		done:   make(chan struct{}),
	}
	if err := s.register(st); err != nil {
		t.Fatal(err)
	}

	// A DATA frame queued on the stream before it fails: ownership sits
	// in st.frames until unregister drains it.
	payload := make([]byte, rlnc.MessageHeaderBytes)
	binary.BigEndian.PutUint64(payload, fileID)
	if err := srv.Send(wire.TypeData, payload); err != nil {
		t.Fatal(err)
	}

	// First STREAM_ERROR kills the stream; the duplicate, a BUSY for
	// the now-unknown id, errors for a never-opened id, and a stray
	// DATA frame for it must all be absorbed without panic or leak.
	writeStreamError(t, srv, fileID, wire.CodeUnknownFile)
	writeStreamError(t, srv, fileID, wire.CodeUnknownFile)
	sendBusy(t, srv, fileID, wire.CodeBusy, 250, "late shed")
	writeStreamError(t, srv, 99, wire.CodeInternal)
	unknown := make([]byte, rlnc.MessageHeaderBytes)
	binary.BigEndian.PutUint64(unknown, 99)
	if err := srv.Send(wire.TypeData, unknown); err != nil {
		t.Fatal(err)
	}

	select {
	case <-st.done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream not failed by STREAM_ERROR")
	}
	var remote *wire.RemoteError
	if !errors.As(st.err, &remote) || remote.Code != wire.CodeUnknownFile {
		t.Fatalf("stream error = %v, want RemoteError(CodeUnknownFile)", st.err)
	}

	// The session must still be alive (stream-scoped frames only): a
	// fresh stream registers fine.
	st2 := &sessStream{fileID: 8, frames: make(chan *wire.Buf, 1), done: make(chan struct{})}
	if err := s.register(st2); err != nil {
		t.Fatalf("session dead after duplicate STREAM_ERROR: %v", err)
	}
	s.unregister(st2)

	// Tear down and drain: every pooled buffer must come home.
	srv.Close()
	select {
	case <-s.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("demux loop did not exit on peer close")
	}
	s.unregister(st)
	s.Close() // gives the session's connection window back

	if live := wire.DefaultPool.Live(); live != before {
		t.Fatalf("pooled buffers leaked: live %d -> %d", before, live)
	}
}

// TestSessionBusyFailsOnlyItsStream pins the demux scoping of BUSY: the
// shed stream observes *wire.Busy with the peer's RETRY_AFTER hint and
// sibling streams keep running.
func TestSessionBusyFailsOnlyItsStream(t *testing.T) {
	s, srv := pipeSession(t)
	shed := &sessStream{fileID: 1, frames: make(chan *wire.Buf, 1), done: make(chan struct{})}
	kept := &sessStream{fileID: 2, frames: make(chan *wire.Buf, 1), done: make(chan struct{})}
	for _, st := range []*sessStream{shed, kept} {
		if err := s.register(st); err != nil {
			t.Fatal(err)
		}
	}
	sendBusy(t, srv, 1, wire.CodeBusy, 250, "at stream capacity")
	select {
	case <-shed.done:
	case <-time.After(5 * time.Second):
		t.Fatal("BUSY did not fail its stream")
	}
	var busy *wire.Busy
	if !errors.As(shed.err, &busy) || busy.Code != wire.CodeBusy || busy.RetryAfterMillis != 250 {
		t.Fatalf("shed stream error = %v, want Busy with RetryAfterMillis 250", shed.err)
	}
	select {
	case <-kept.done:
		t.Fatalf("sibling stream failed by another stream's BUSY: %v", kept.err)
	default:
	}
	s.unregister(shed)
	s.unregister(kept)
}

// TestStreamEndClassification pins how the one receive path ends a
// stream and how the engine recovers from each ending: an orderly STOP
// is a clean end, an abort without STOP is retried (redial), a peer's
// STREAM_ERROR is terminal, a BUSY shed is re-requested after its
// RETRY_AFTER hint, and an EXPIRED shed is terminal. Each case scripts
// the fake peer's answer to the stream's GET_MUX.
func TestStreamEndClassification(t *testing.T) {
	const fileID = 5
	cases := []struct {
		name       string
		answer     func(t *testing.T, srv *wire.Conn)
		want       streamEnd
		retryAfter time.Duration
	}{
		{"orderly STOP", func(t *testing.T, srv *wire.Conn) {
			stop := wire.Stop{FileID: fileID}
			if err := srv.Send(wire.TypeStop, stop.Marshal()); err != nil {
				t.Error(err)
			}
		}, endOrderly, 0},
		{"abort", func(t *testing.T, srv *wire.Conn) { srv.Close() }, endRetry, 0},
		{"remote error", func(t *testing.T, srv *wire.Conn) {
			writeStreamError(t, srv, fileID, wire.CodeUnknownFile)
		}, endTerminal, 0},
		{"busy", func(t *testing.T, srv *wire.Conn) {
			sendBusy(t, srv, fileID, wire.CodeBusy, 750, "at stream capacity")
		}, endShed, 750 * time.Millisecond},
		{"expired", func(t *testing.T, srv *wire.Conn) {
			sendBusy(t, srv, fileID, wire.CodeExpired, 0, "deadline passed")
		}, endTerminal, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := pipeSession(t)
			go func() {
				b, err := srv.Expect(wire.TypeGetMux)
				if err != nil {
					t.Errorf("fake peer read %v; want GET_MUX", err)
					return
				}
				b.Release()
				tc.answer(t, srv)
			}()
			params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), 4, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := rlnc.NewPipeline(params, fileID, make([]byte, rlnc.SecretLen), nil, rlnc.PipelineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err = s.FetchStream(ctx, StreamRequest{FileID: fileID}, pipe, nil)
			end, retryAfter := classifyEnd(err)
			if end != tc.want || retryAfter != tc.retryAfter {
				t.Fatalf("stream ended with %v: classified (%d, %v), want (%d, %v)",
					err, end, retryAfter, tc.want, tc.retryAfter)
			}
		})
	}
}
