package client

// PeerSession multiplexes many concurrent generation downloads over one
// authenticated connection. The fetch engine (fetch.go) opens one
// session per peer for a whole call: the handshake is paid once, each
// chunk is a GET_MUX stream, and the demux loop routes the interleaved
// DATA frames by the file-id every message carries in its first 8
// header bytes. sessionPool, at the end of this file, is the engine's
// per-call set of sessions and where an aborted one is redialed.
//
// Buffer ownership (DESIGN.md §13): the demux loop owns each frame
// buffer from FrameReader.Next until it hands it to a stream's frame
// channel, where ownership transfers to the stream's FetchStream loop,
// which releases it after feeding the decoder. Frames for unknown or
// dead streams are released on the spot, so a cancelled stream can
// never leak its in-flight buffers.
//
// Failure scoping: STREAM_ERROR and BUSY frames and per-message digest
// failures end only the stream they name — every other stream on the
// session keeps running. Read errors on the connection itself fail all
// streams with the retriable errPeerAborted class.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"asymshare/internal/auth"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// sessStreamBuffer is the per-stream frame channel depth: enough to
// keep the decoder busy while the demux loop reads ahead, small enough
// that one slow stream backpressures the connection instead of hoarding
// pooled buffers.
const sessStreamBuffer = 64

// ErrSessionClosed is returned by FetchStream on a session whose
// connection has already failed or been closed.
var ErrSessionClosed = errors.New("client: peer session closed")

// sessStream is the demux target for one in-flight generation.
type sessStream struct {
	fileID uint64
	frames chan *wire.Buf

	failOnce sync.Once
	err      error
	done     chan struct{}
}

// fail records the stream's terminal error and wakes its FetchStream
// loop.
func (st *sessStream) fail(err error) {
	st.failOnce.Do(func() {
		st.err = err
		close(st.done)
	})
}

// PeerSession is one authenticated, multiplexed connection to a storage
// peer. Safe for concurrent FetchStream calls; create with
// NewPeerSession and Close when done.
type PeerSession struct {
	c           *Client
	addr        string
	conn        net.Conn
	fingerprint string
	cw          *sessionWriter

	mu      sync.Mutex
	streams map[uint64]*sessStream
	dead    error // conn-level failure, set before closed is closed

	closed    chan struct{} // demux loop exited
	closeOnce sync.Once
}

// sessionWriter serializes control writes from concurrent streams over
// one batched FrameWriter.
type sessionWriter struct {
	mu sync.Mutex
	fw *wire.FrameWriter
}

func (sw *sessionWriter) writeFrame(t wire.Type, payload []byte) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.fw.WriteFrame(t, payload)
}

// NewPeerSession dials addr, completes the mutual handshake and starts
// the demux loop. The context bounds only the dial; the session then
// lives until Close or a connection failure.
func (c *Client) NewPeerSession(ctx context.Context, addr string) (*PeerSession, error) {
	conn, peerKey, err := c.dial(ctx, addr, wire.RoleUser)
	if err != nil {
		return nil, err
	}
	s := &PeerSession{
		c:           c,
		addr:        addr,
		conn:        conn,
		fingerprint: auth.Fingerprint(peerKey),
		cw:          &sessionWriter{fw: wire.NewFrameWriter(conn)},
		streams:     make(map[uint64]*sessStream),
		closed:      make(chan struct{}),
	}
	go s.demux()
	return s, nil
}

// Fingerprint returns the peer's key fingerprint.
func (s *PeerSession) Fingerprint() string { return s.fingerprint }

// Addr returns the peer's address.
func (s *PeerSession) Addr() string { return s.addr }

// Close tears the session down: best-effort BYE, close the connection,
// wait for the demux loop (which fails any remaining streams).
func (s *PeerSession) Close() error {
	s.closeOnce.Do(func() {
		_ = s.cw.writeFrame(wire.TypeBye, nil)
		s.conn.Close()
	})
	<-s.closed
	return nil
}

// register adds a stream, refusing duplicates and dead sessions.
func (s *PeerSession) register(st *sessStream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if _, ok := s.streams[st.fileID]; ok {
		return fmt.Errorf("client: stream for file %d already open on session to %s", st.fileID, s.addr)
	}
	s.streams[st.fileID] = st
	return nil
}

// unregister removes st if it is still the registered stream for its
// file-id, then drains and releases any frames the demux loop had
// already queued.
func (s *PeerSession) unregister(st *sessStream) {
	s.mu.Lock()
	if s.streams[st.fileID] == st {
		delete(s.streams, st.fileID)
	}
	s.mu.Unlock()
	st.fail(ErrSessionClosed) // no-op if already terminal; stops deliveries
	for {
		select {
		case b, ok := <-st.frames:
			if !ok {
				return
			}
			b.Release()
		default:
			return
		}
	}
}

// failed reports whether the session's connection has died.
func (s *PeerSession) failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead != nil
}

// lookup returns the stream registered for fileID, if any.
func (s *PeerSession) lookup(fileID uint64) *sessStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[fileID]
}

// failAll marks the session dead and fails every open stream.
func (s *PeerSession) failAll(err error) {
	s.mu.Lock()
	if s.dead == nil {
		s.dead = err
	}
	streams := make([]*sessStream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = make(map[uint64]*sessStream)
	s.mu.Unlock()
	for _, st := range streams {
		st.fail(err)
	}
}

// demux is the session's read loop: it routes DATA frames to their
// stream by the file-id in the message header, turns STOP frames into
// per-stream end-of-stream, and scopes STREAM_ERROR frames to the one
// stream they name. It exits on any connection-level failure, failing
// every open stream with a retriable classification.
func (s *PeerSession) demux() {
	defer close(s.closed)
	fr := wire.NewFrameReader(s.conn)
	for {
		t, b, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = fmt.Errorf("%w (%s): %v", errPeerAborted, s.addr, err)
			}
			s.failAll(err)
			return
		}
		switch t {
		case wire.TypeData:
			payload := b.Bytes()
			if len(payload) < rlnc.MessageHeaderBytes {
				b.Release()
				s.failAll(fmt.Errorf("%w: %d-byte data frame", wire.ErrBadFrame, len(payload)))
				return
			}
			fileID := binary.BigEndian.Uint64(payload)
			st := s.lookup(fileID)
			if st == nil {
				// Stream stopped or never existed: tail frames in flight.
				b.Release()
				continue
			}
			select {
			case st.frames <- b: // ownership transfers to the stream
			case <-st.done:
				b.Release()
			}
		case wire.TypeStop:
			var stop wire.Stop
			uerr := stop.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.mu.Lock()
			st := s.streams[stop.FileID]
			delete(s.streams, stop.FileID)
			s.mu.Unlock()
			if st != nil {
				close(st.frames) // peer exhausted: orderly end-of-stream
			}
		case wire.TypeStreamError:
			var se wire.StreamError
			uerr := se.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.mu.Lock()
			st := s.streams[se.FileID]
			delete(s.streams, se.FileID)
			s.mu.Unlock()
			if st != nil {
				st.fail(&wire.RemoteError{Code: se.Code, Reason: se.Reason})
			}
		case wire.TypeBusy:
			// Stream-scoped shed: the peer refused, preempted, or
			// expired the one stream the frame names. Like a duplicate
			// STREAM_ERROR, a BUSY for an unknown stream is ignored.
			var bz wire.Busy
			uerr := bz.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.mu.Lock()
			st := s.streams[bz.FileID]
			delete(s.streams, bz.FileID)
			s.mu.Unlock()
			if st != nil {
				st.fail(&bz)
			}
		case wire.TypeError:
			var e wire.ErrorMsg
			uerr := e.Unmarshal(b.Bytes())
			b.Release()
			if uerr != nil {
				s.failAll(uerr)
				return
			}
			s.failAll(&wire.RemoteError{Code: e.Code, Reason: e.Reason})
			return
		default:
			b.Release()
			s.failAll(fmt.Errorf("%w: %s during muxed fetch", wire.ErrUnexpectedFrame, t))
			return
		}
	}
}

// stop asks the peer to cancel one stream (best-effort).
func (s *PeerSession) stop(fileID uint64) {
	stopMsg := wire.Stop{FileID: fileID}
	_ = s.cw.writeFrame(wire.TypeStop, stopMsg.Marshal())
}

// StreamRequest names one muxed stream's inputs beyond the defaults:
// the generation to fetch and the wire priority propagated with it.
type StreamRequest struct {
	FileID uint64

	// Priority is carried in the GET_MUX frame; higher values win
	// admission ties at an overloaded peer. Zero is normal.
	Priority uint8
}

// FetchStream streams one generation into sink over the session,
// returning nil when the decode completes (sink.Done), the peer
// exhausts its stored messages (orderly STOP), or the context ends,
// and the stream's error otherwise. onBytes, if non-nil, is called with
// each message's wire size for receipt accounting. Digest failures are
// tolerated: the forged message is dropped and the stream continues.
// The context's deadline, if any, is propagated on the wire as the
// remaining budget so the peer can drop the stream once it passes.
func (s *PeerSession) FetchStream(ctx context.Context, req StreamRequest, sink rlnc.ByteSink, onBytes func(int)) error {
	fileID := req.FileID
	st := &sessStream{
		fileID: fileID,
		frames: make(chan *wire.Buf, sessStreamBuffer),
		done:   make(chan struct{}),
	}
	if err := s.register(st); err != nil {
		return err
	}
	defer s.unregister(st)
	get := wire.Get{FileID: fileID, DeadlineMillis: deadlineMillis(ctx), Priority: req.Priority}
	if err := s.cw.writeFrame(wire.TypeGetMux, get.Marshal()); err != nil {
		return err
	}
	for {
		select {
		case <-ctx.Done():
			s.stop(fileID)
			return nil // cancelled: decode completed elsewhere, or deadline
		case <-st.done:
			if errors.Is(st.err, ErrSessionClosed) {
				return nil
			}
			return st.err
		case b, ok := <-st.frames:
			if !ok {
				return nil // peer exhausted (orderly STOP)
			}
			_, addErr := sink.AddBytes(b.Bytes())
			n := b.Len()
			b.Release()
			s.c.m.received.Add(uint64(n))
			s.c.m.recvRate.Mark(uint64(n))
			if onBytes != nil {
				onBytes(n)
			}
			if addErr != nil && !errors.Is(addErr, rlnc.ErrBadDigest) {
				s.stop(fileID)
				return addErr
			}
			if sink.Done() {
				s.stop(fileID)
				return nil
			}
		}
	}
}

// dialError marks a failed session dial, which the pool has already
// recorded in the peer's health.
type dialError struct{ err error }

func (e *dialError) Error() string { return e.err.Error() }
func (e *dialError) Unwrap() error { return e.err }

// sessionPool holds one engine call's sessions: one per peer address,
// dialed on first use and shared by every chunk stream to that peer.
type sessionPool struct {
	ctx context.Context // the call's; bounds every dial
	c   *Client

	mu      sync.Mutex
	current map[string]*poolEntry
	all     []*poolEntry   // every dial, replaced ones included
	dials   sync.WaitGroup // dials in flight
}

// poolEntry is one dial of a peer; ready closes once s or err is set.
type poolEntry struct {
	ready chan struct{}
	s     *PeerSession
	err   error
}

func newSessionPool(ctx context.Context, c *Client) *sessionPool {
	return &sessionPool{ctx: ctx, c: c, current: make(map[string]*poolEntry)}
}

// get returns addr's current entry, dialing when there is none or when
// its dial failed or its session died — the redial on abort, which
// concurrent callers then share. A failed dial or handshake while the
// call is live is the peer's fault and feeds its circuit breaker, once
// per dial; it is recorded only after the entry reads as broken, so an
// attempt that starts after the record — a half-open probe, say —
// dials afresh and gets a verdict of its own.
func (p *sessionPool) get(addr string) *poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.current[addr]
	if e != nil && !e.broken() {
		return e
	}
	e = &poolEntry{ready: make(chan struct{})}
	p.current[addr] = e
	p.all = append(p.all, e)
	p.dials.Add(1)
	go func() {
		defer p.dials.Done()
		s, err := p.c.NewPeerSession(p.ctx, addr)
		if err != nil {
			e.err = &dialError{err}
		}
		e.s = s
		close(e.ready)
		if err != nil && p.ctx.Err() == nil {
			p.c.health.recordFailure(addr)
		}
	}()
	return e
}

// broken reports whether e's dial failed or its session has died; an
// entry still dialing is not broken.
func (e *poolEntry) broken() bool {
	select {
	case <-e.ready:
		return e.err != nil || e.s.failed()
	default:
		return false
	}
}

// wait returns the entry's session once its dial has finished.
func (e *poolEntry) wait(ctx context.Context) (*PeerSession, error) {
	select {
	case <-e.ready:
		return e.s, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// close waits out any dial still in flight (the call's context is
// already cancelled) and closes every session the call opened.
func (p *sessionPool) close() {
	p.dials.Wait()
	for _, e := range p.all {
		if e.s != nil {
			e.s.Close()
		}
	}
}
