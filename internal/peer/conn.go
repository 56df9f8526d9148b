package peer

// Per-connection protocol handling. After the mutual handshake the peer
// processes PUT (initialization uploads), GET_MUX (download requests,
// served by shaped writer goroutines), STOP, FEEDBACK (owner only) and
// BYE frames. Everything runs on one wire.Conn: DATA writes, control
// replies and error frames all go through its one writer under its
// write lock, so no frame can land inside another.
//
// Frames are read through the Conn's pooled reader: each payload
// arrives in a reference-counted buffer that the dispatch loop releases
// after the handler returns (handlers copy what they keep). The serve
// path frames stored messages with QueueSpan — 16 header bytes copied,
// the payload handed to writev untouched — so a DATA frame reaches the
// socket without marshaling and without steady-state allocation.
//
// Downloads are GET_MUX streams: a refused or failed stream is answered
// with a STREAM_ERROR (or BUSY) frame naming the file-id, and the
// connection — with every other stream on it — stays usable. The plain
// one-stream GET frame is refused like any unexpected frame.

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/fairshare"
	"asymshare/internal/ratelimit"
	"asymshare/internal/wire"

	"asymshare/internal/rlnc"
)

// serveBatchBytes caps how many DATA bytes one stream queues under the
// connection write lock before flushing, bounding both the lock hold
// time and the latency it imposes on control replies.
const serveBatchBytes = 256 << 10

// sendBusy sends a load-shed refusal for one stream: retry after the
// hint, the connection stays open either way.
func sendBusy(conn *wire.Conn, fileID uint64, code uint16, retryAfterMillis uint32, reason string) error {
	b := wire.Busy{FileID: fileID, Code: code, RetryAfterMillis: retryAfterMillis, Reason: reason}
	return conn.Send(wire.TypeBusy, b.Marshal())
}

// connState bundles the per-connection resources the frame dispatcher
// and its stream goroutines share.
type connState struct {
	n         *Node
	conn      *wire.Conn
	client    fairshare.ID
	clientKey ed25519.PublicKey
	ctx       context.Context
	wg        *sync.WaitGroup

	mu     sync.Mutex
	active map[uint64]*stream
}

func (n *Node) handleConn(nc net.Conn) {
	conn := wire.NewConn(nc)
	defer conn.Close()
	// Node shutdown closes the connection, unblocking the read loop.
	defer conn.Bind(n.ctx).Unbind()
	clientKey, role, err := wire.ResponderHandshake(conn, n.cfg.Identity, n.cfg.Trusted)
	if err != nil {
		n.log.Debug("handshake failed", "remote", conn.RemoteAddr().String(), "err", err)
		return
	}
	client := auth.Fingerprint(clientKey)
	n.log.Debug("session open", "client", client, "role", role)

	// Streams started by this connection, so they are torn down when
	// the connection dies.
	var streamWG sync.WaitGroup
	connCtx, connCancel := context.WithCancel(n.ctx)
	defer func() {
		connCancel()
		// Close before waiting: a stream can be parked inside a shaped
		// or kernel-buffered write on this connection, and only the
		// close unblocks it. Waiting first would deadlock shutdown for
		// as long as the link takes to drain.
		conn.Close()
		streamWG.Wait()
	}()
	cs := &connState{
		n:         n,
		conn:      conn,
		client:    client,
		clientKey: clientKey,
		ctx:       connCtx,
		wg:        &streamWG,
		active:    make(map[uint64]*stream),
	}
	for {
		t, buf, err := conn.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.log.Debug("read error", "client", client, "err", err)
			}
			return
		}
		done := cs.dispatch(t, buf.Bytes())
		buf.Release()
		if done {
			return
		}
	}
}

// dispatch handles one control frame. A true return closes the
// connection. payload is only valid for the duration of the call;
// handlers copy what they keep.
func (cs *connState) dispatch(t wire.Type, payload []byte) bool {
	n, client := cs.n, cs.client
	switch t {
	case wire.TypePut:
		if err := n.handlePut(cs.conn, client, payload); err != nil {
			n.log.Debug("put failed", "client", client, "err", err)
			return true
		}
	case wire.TypePatch:
		if err := n.handlePatch(cs.conn, client, payload); err != nil {
			n.log.Debug("patch failed", "client", client, "err", err)
			return true
		}
	case wire.TypeGetMux:
		return cs.handleGet(payload)
	case wire.TypeStop:
		var stop wire.Stop
		if err := stop.Unmarshal(payload); err != nil {
			_ = cs.conn.Reject(wire.CodeBadRequest, "malformed stop")
			return true
		}
		cs.mu.Lock()
		if s, ok := cs.active[stop.FileID]; ok {
			s.cancel()
			delete(cs.active, stop.FileID)
		}
		cs.mu.Unlock()
	case wire.TypeList:
		list := wire.FileList{}
		for _, fileID := range n.cfg.Store.Files() {
			list.Files = append(list.Files, wire.FileEntry{
				FileID:   fileID,
				Messages: n.cfg.Store.Count(fileID),
			})
		}
		blob, err := list.Marshal()
		if err != nil {
			return true
		}
		if err := cs.conn.Send(wire.TypeFileList, blob); err != nil {
			return true
		}
	case wire.TypeAuditChallenge:
		if err := n.handleAudit(cs.conn, client, payload); err != nil {
			n.log.Debug("audit failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractPropose:
		if err := n.handleContractPropose(cs.conn, client, payload); err != nil {
			n.log.Debug("contract propose failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractRenew:
		if err := n.handleContractRenew(cs.conn, client, payload); err != nil {
			n.log.Debug("contract renew failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractRelease:
		if err := n.handleContractRelease(cs.conn, client, payload); err != nil {
			n.log.Debug("contract release failed", "client", client, "err", err)
			return true
		}
	case wire.TypeContractList:
		if err := n.handleContractList(cs.conn, client); err != nil {
			return true
		}
	case wire.TypeFeedback:
		n.handleFeedback(cs.clientKey, client, payload)
		// Acknowledge so the sender knows the credits landed before
		// it disconnects.
		if err := cs.conn.Send(wire.TypePutOK, nil); err != nil {
			return true
		}
	case wire.TypeBye:
		return true
	default:
		_ = cs.conn.Reject(wire.CodeBadRequest, "unexpected frame "+t.String())
		return true
	}
	return false
}

// handleGet starts one download stream. A refusal is stream-scoped and
// leaves the connection (and its other streams) running; a payload that
// does not even parse is a connection fault.
func (cs *connState) handleGet(payload []byte) bool {
	var get wire.Get
	if err := get.Unmarshal(payload); err != nil {
		_ = cs.conn.Reject(wire.CodeBadRequest, "malformed get")
		return true
	}
	s, err := cs.n.startStream(cs, get)
	if err != nil {
		var remote *wire.RemoteError
		if !errors.As(err, &remote) {
			cs.n.log.Debug("get failed", "client", cs.client, "err", err)
		}
		// The refusal frame has been sent; the connection stays open for
		// further requests.
		return false
	}
	cs.mu.Lock()
	cs.active[get.FileID] = s
	cs.mu.Unlock()
	return false
}

// handlePut stores one uploaded message. The first uploader of a
// file-id becomes its owner; writes from anyone else are refused.
func (n *Node) handlePut(conn *wire.Conn, client fairshare.ID, payload []byte) error {
	var msg rlnc.Message
	if err := msg.UnmarshalBinary(payload); err != nil {
		return err
	}
	if !n.claimFile(msg.FileID, client) {
		_ = conn.Reject(wire.CodeNotPermitted, "file owned by another user")
		return fmt.Errorf("put for file %d owned by another user", msg.FileID)
	}
	if err := n.cfg.Store.Put(&msg); err != nil {
		return err
	}
	n.recordStored(len(payload))
	return conn.Send(wire.TypePutOK, nil)
}

// handlePatch applies a delta message (Sec. VI-A data modification) to
// the matching stored message. Only the file's owner may patch.
func (n *Node) handlePatch(conn *wire.Conn, client fairshare.ID, payload []byte) error {
	var delta rlnc.Message
	if err := delta.UnmarshalBinary(payload); err != nil {
		return err
	}
	if !n.claimFile(delta.FileID, client) {
		_ = conn.Reject(wire.CodeNotPermitted, "file owned by another user")
		return fmt.Errorf("patch for file %d owned by another user", delta.FileID)
	}
	stored, err := n.cfg.Store.Get(delta.FileID, delta.MessageID)
	if err != nil {
		_ = conn.Reject(wire.CodeUnknownFile,
			fmt.Sprintf("no stored message (%d,%d)", delta.FileID, delta.MessageID))
		return err
	}
	if err := rlnc.ApplyDelta(stored, &delta); err != nil {
		_ = conn.Reject(wire.CodeBadRequest, "delta mismatch")
		return err
	}
	if err := n.cfg.Store.Put(stored); err != nil {
		return err
	}
	return conn.Send(wire.TypePutOK, nil)
}

// handleFeedback folds the owner's receipt report into the ledger.
// Reports from anyone but the owner are ignored: a malicious user
// cannot inflate another peer's standing (or slash a rival's). Credits
// reward service received; debits carry the owner's audit verdicts, so
// a counterpart caught dropping the owner's stored data loses standing
// with this peer's allocator.
func (n *Node) handleFeedback(clientKey ed25519.PublicKey, client fairshare.ID, payload []byte) {
	if n.cfg.Owner == nil || !clientKey.Equal(n.cfg.Owner) {
		n.log.Debug("feedback ignored from non-owner", "client", client)
		return
	}
	var fb wire.Feedback
	if err := fb.Unmarshal(payload); err != nil {
		n.log.Debug("malformed feedback", "client", client, "err", err)
		return
	}
	for _, e := range fb.Entries {
		n.ledger.Credit(e.PeerFingerprint, float64(e.Bytes))
		n.ledger.Debit(e.PeerFingerprint, float64(e.Debit))
	}
	n.m.feedback.Inc()
}

// handleAudit answers a keyed retention spot-check (internal/audit):
// for each sampled message the peer recomputes the content digest from
// the bytes it actually stores and MACs it under the challenge key.
// Messages it no longer holds are admitted as absent — guessing would
// fail verification anyway, since the owner checks against the digests
// recorded at dissemination time. A malformed challenge is answered
// with a typed error frame and kills the connection.
func (n *Node) handleAudit(conn *wire.Conn, client fairshare.ID, payload []byte) error {
	var ch wire.AuditChallenge
	if err := ch.Unmarshal(payload); err != nil {
		_ = conn.Reject(wire.CodeBadRequest, "malformed audit challenge")
		return err
	}
	resp := wire.AuditResponse{FileID: ch.FileID, Proofs: make([]wire.AuditProof, 0, len(ch.MessageIDs))}
	proven := 0
	for _, id := range ch.MessageIDs {
		proof := wire.AuditProof{MessageID: id}
		if msg, err := n.cfg.Store.Get(ch.FileID, id); err == nil {
			digest := msg.Digest()
			proof.Present = true
			proof.MAC = auth.AuditMAC(ch.Key, ch.FileID, id, digest[:])
			proven++
		}
		resp.Proofs = append(resp.Proofs, proof)
	}
	n.recordAudit(proven, len(ch.MessageIDs))
	n.log.Debug("audit answered", "client", client, "file", ch.FileID,
		"sampled", len(ch.MessageIDs), "held", proven)
	return conn.Send(wire.TypeAuditResponse, resp.Marshal())
}

// startStream begins serving a GET_MUX request on its own goroutine.
func (n *Node) startStream(cs *connState, get wire.Get) (*stream, error) {
	msgs, err := n.cfg.Store.Messages(get.FileID)
	if err != nil {
		e := wire.StreamError{FileID: get.FileID, Code: wire.CodeUnknownFile, Reason: fmt.Sprintf("file %d", get.FileID)}
		_ = cs.conn.Send(wire.TypeStreamError, e.Marshal())
		return nil, &wire.RemoteError{Code: wire.CodeUnknownFile}
	}
	if get.Limit > 0 && int(get.Limit) < len(msgs) {
		msgs = msgs[:get.Limit]
	}
	// The burst must cover at least one full message frame or WaitN
	// could never succeed.
	burst := n.cfg.StreamBurst
	if burst <= 0 {
		burst = streamBurst
	}
	for _, m := range msgs {
		if need := float64(len(m.Payload) + 64); need > burst {
			burst = need
		}
	}
	streamCtx, cancel := context.WithCancel(cs.ctx)
	s := &stream{
		client:   cs.client,
		bucket:   ratelimit.NewBucket(0, burst),
		cancel:   cancel,
		fileID:   get.FileID,
		limited:  n.shaping(),
		priority: get.Priority,
	}
	if get.DeadlineMillis > 0 {
		// The wire carries deadline-*remaining*, so no clock agreement
		// with the requester is needed: anchor it here.
		s.deadline = time.Now().Add(time.Duration(get.DeadlineMillis) * time.Millisecond)
	}
	conn := cs.conn
	s.notifyBusy = func(code uint16, retryAfterMillis uint32, reason string) {
		_ = sendBusy(conn, get.FileID, code, retryAfterMillis, reason)
	}
	s.bucket.SetMetrics(n.m.waitSeconds, n.m.throttled)
	verdict := n.admitStream(s)
	if verdict.victim != nil {
		n.shedStream(verdict.victim, "preempted by a higher-standing requester")
	}
	if !verdict.ok {
		cancel()
		n.recordShed(cs.client, false)
		_ = sendBusy(conn, get.FileID, wire.CodeBusy, verdict.retryAfterMillis, "at stream capacity")
		return nil, &wire.RemoteError{Code: wire.CodeBusy}
	}
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		defer n.unregisterStream(s)
		defer cancel()
		defer func() {
			cs.mu.Lock()
			if cs.active[s.fileID] == s {
				delete(cs.active, s.fileID)
			}
			cs.mu.Unlock()
		}()
		n.serveStream(streamCtx, conn, s, msgs)
	}()
	return s, nil
}

// serveStream writes DATA frames at the allocator-assigned rate until
// the messages are exhausted or the stream is cancelled. Each message
// is framed zero-copy — QueueSpan copies the 16-byte header into the
// writer arena and hands the stored payload to the vectored write
// untouched. After the rate limiter admits the first message, further
// messages whose tokens are already in the bucket are batched into the
// same flush (Available is checked before WaitN, so the limiter can
// never block while the connection write lock is held). An unlimited
// peer skips the bucket entirely — no token math, no timer sleeps —
// and batches straight up to the flush watermark. Served bytes are
// counted as each frame is queued, ahead of the write; a failed write
// ends the stream, so at most its last batch is over-counted.
func (n *Node) serveStream(ctx context.Context, conn *wire.Conn, s *stream, msgs []*rlnc.Message) {
	var hdr [rlnc.MessageHeaderBytes]byte
	for i := 0; i < len(msgs); {
		// Dead work is dropped, not served: once the requester's
		// propagated deadline passes, every further byte would arrive
		// too late to matter, so tell the requester and free the slot.
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			n.recordExpired()
			_ = sendBusy(conn, s.fileID, wire.CodeExpired, 0, "deadline passed")
			return
		}
		// Brownout halves the batch budget per flush, re-read each
		// round so the degradation tracks admission load live.
		batchBytes := n.currentBatchBytes()
		need := rlnc.MessageHeaderBytes + len(msgs[i].Payload)
		if s.limited {
			if err := s.bucket.WaitN(ctx, need); err != nil {
				return // cancelled or burst misconfiguration
			}
		} else if ctx.Err() != nil {
			return
		}
		fw, err := conn.LockWriter()
		if err != nil {
			return
		}
		flushStart := time.Now()
		sent := 0
		for first := true; i < len(msgs) && (first || fw.Queued() < batchBytes); first = false {
			msg := msgs[i]
			nn := rlnc.MessageHeaderBytes + len(msg.Payload)
			if !first && s.limited {
				if s.bucket.Available() < float64(nn) {
					break
				}
				if err := s.bucket.WaitN(ctx, nn); err != nil {
					conn.UnlockWriter()
					return
				}
			}
			// Served bytes are counted as they are queued, before the
			// writer can put them on the socket (it may flush inside
			// QueueSpan), so the metric is current by the time the
			// requester holds the bytes.
			n.recordServed(s.client, nn)
			msg.PutHeader(hdr[:])
			if err := fw.QueueSpan(wire.TypeData, hdr[:], msg.Payload); err != nil {
				conn.UnlockWriter()
				return
			}
			sent += nn
			i++
		}
		// The batch drains through the raw socket, not the token
		// bucket, so its timing sees the real link rate even while the
		// allocator is granting this stream far less — that is what
		// makes it a usable capacity sample. The timer starts at the
		// first QueueSpan because the frame writer auto-flushes once
		// enough is queued: the socket writes may happen inside the
		// Queue calls, not in the final Flush.
		err = fw.Flush()
		flushDur := time.Since(flushStart)
		conn.UnlockWriter()
		if err != nil {
			return
		}
		n.recordFlush(sent, flushDur)
	}
	// All stored messages sent: signal end-of-stream with a STOP frame
	// so the downloader knows this peer is exhausted.
	select {
	case <-ctx.Done():
	default:
		eos := wire.Stop{FileID: s.fileID}
		_ = conn.Send(wire.TypeStop, eos.Marshal())
	}
}
