package gossip

// The wire protocol for one push/pull exchange, framed like every other
// protocol in the system (1-byte type + length + payload) on its own
// type range. The initiator offers its message-id set; the responder
// answers with the ids it wants and the ids it can offer back; verbatim
// message bytes then flow in both directions. Only ids absent from the
// other side's set ever transfer, so a fully-synced pair costs three
// small JSON frames and no data.
//
//	A -> B  Offer{fileID, k, payloadLen, ids}
//	B -> A  Want{want ⊆ A's ids, offer = B's ids \ A's ids}
//	A -> B  Data × len(want), then Pull{want ⊆ B's offer}
//	B -> A  Data × len(pull.want), then Done
//
// Counts are never trusted: each side reads Data frames until the
// terminating Pull/Done frame arrives.

import (
	"context"
	"encoding/json"
	"fmt"

	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// Exchange frame types, in a range disjoint from the peer (1–17),
// tracker (64–67) and DHT (96–103) protocols.
const (
	typeOffer wire.Type = 112 + iota
	typeWant
	typeData
	typePull
	typeDone
)

type offerMsg struct {
	FileID     uint64   `json:"fileId"`
	K          int      `json:"k,omitempty"`
	PayloadLen int      `json:"payloadLen,omitempty"`
	IDs        []uint64 `json:"ids"`
}

type wantMsg struct {
	Want  []uint64 `json:"want,omitempty"`
	Offer []uint64 `json:"offer,omitempty"`
}

type pullMsg struct {
	Want []uint64 `json:"want,omitempty"`
}

func writeJSON(conn *wire.Conn, t wire.Type, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return conn.Send(t, buf)
}

func readJSON(conn *wire.Conn, want wire.Type, v any) error {
	b, err := conn.Expect(want)
	if err != nil {
		return err
	}
	err = json.Unmarshal(b.Bytes(), v)
	b.Release()
	return err
}

// snapshotIDs returns the generation's id list (nil if unknown) plus
// its k/payloadLen hints; bounded only by the actual set size — offers
// are cheap, Budget applies to data transfer.
func (e *Engine) snapshotIDs(fileID uint64) (ids []uint64, k, payloadLen int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g, ok := e.gens[fileID]
	if !ok {
		return nil, 0, 0
	}
	ids = make([]uint64, 0, len(g.ids))
	for id := range g.ids {
		ids = append(ids, id)
	}
	return ids, g.k, g.payloadLen
}

// missing returns up to budget ids from offered that the generation
// lacks.
func missing(offered []uint64, have map[uint64]struct{}, budget int) []uint64 {
	out := make([]uint64, 0, budget)
	for _, id := range offered {
		if _, ok := have[id]; ok {
			continue
		}
		out = append(out, id)
		if len(out) == budget {
			break
		}
	}
	return out
}

// surplus returns up to budget ids this side has that the remote's
// offered set lacks.
func surplus(have map[uint64]struct{}, offered []uint64, budget int) []uint64 {
	remote := make(map[uint64]struct{}, len(offered))
	for _, id := range offered {
		remote[id] = struct{}{}
	}
	out := make([]uint64, 0, budget)
	for id := range have {
		if _, ok := remote[id]; ok {
			continue
		}
		out = append(out, id)
		if len(out) == budget {
			break
		}
	}
	return out
}

// absorb validates and stores one received message, updating rumor
// state and metrics. Receiving anything new marks the generation hot:
// the receiver becomes a spreader.
func (e *Engine) absorb(msg *rlnc.Message, fileID uint64, k, payloadLen int) error {
	if msg.FileID != fileID {
		return fmt.Errorf("gossip: data frame for file %d inside exchange for %d", msg.FileID, fileID)
	}
	e.mu.Lock()
	g := e.genLocked(fileID, k, payloadLen)
	if g.payloadLen > 0 && len(msg.Payload) != g.payloadLen {
		e.mu.Unlock()
		return fmt.Errorf("gossip: payload length %d != generation's %d", len(msg.Payload), g.payloadLen)
	}
	if _, dup := g.ids[msg.MessageID]; dup {
		e.mu.Unlock()
		e.m.duplicate.Inc()
		return nil
	}
	e.mu.Unlock()

	// Store outside the lock; Put is the slow part.
	if err := e.cfg.Store.Put(msg); err != nil {
		return err
	}
	e.mu.Lock()
	g = e.genLocked(fileID, k, payloadLen)
	_, dup := g.ids[msg.MessageID]
	if !dup {
		g.ids[msg.MessageID] = struct{}{}
		g.hot = true
		g.idle = 0
	}
	announce := e.markAnnouncedLocked(g)
	e.mu.Unlock()
	if dup {
		e.m.duplicate.Inc()
		return nil
	}
	e.m.innovative.Inc()
	if announce != nil {
		announce(fileID)
	}
	return nil
}

// sendData ships the named stored messages as Data frames; ids the
// store no longer has are silently skipped (the terminator frame tells
// the reader when the stream ends, not a count). Each message is framed
// zero-copy — 16 header bytes into the writer arena, the stored payload
// handed to the vectored write untouched — and batches of frames share
// one writev (the writer auto-flushes as the queue grows).
func (e *Engine) sendData(conn *wire.Conn, fileID uint64, ids []uint64) (int, error) {
	fw, err := conn.LockWriter()
	if err != nil {
		return 0, err
	}
	defer conn.UnlockWriter()
	var hdr [rlnc.MessageHeaderBytes]byte
	sent := 0
	for _, id := range ids {
		msg, err := e.cfg.Store.Get(fileID, id)
		if err != nil {
			continue
		}
		msg.PutHeader(hdr[:])
		if err := fw.QueueSpan(typeData, hdr[:], msg.Payload); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, fw.Flush()
}

// readData consumes Data frames until the terminator type arrives,
// absorbing each message; it returns the count absorbed innovatively
// plus the terminator's payload (copied out of the pooled frame).
func (e *Engine) readData(conn *wire.Conn, fileID uint64, k, payloadLen int, terminator wire.Type) (int, []byte, error) {
	got := 0
	for {
		t, b, err := conn.Next()
		if err != nil {
			return got, nil, err
		}
		switch t {
		case typeData:
			var msg rlnc.Message
			err := msg.UnmarshalBinary(b.Bytes())
			b.Release()
			if err != nil {
				return got, nil, err
			}
			if err := e.absorb(&msg, fileID, k, payloadLen); err != nil {
				return got, nil, err
			}
			got++
		case terminator:
			payload := append([]byte(nil), b.Bytes()...)
			b.Release()
			return got, payload, nil
		default:
			b.Release()
			return got, nil, fmt.Errorf("gossip: unexpected frame type %d", t)
		}
	}
}

// maxExchangeIDs caps how many remote-supplied message ids one
// exchange will even look at. Offers and want-queues are adversarial
// inputs (any contact can connect); without the cap a single huge id
// list would cost unbounded memory in the diff maps below long before
// Budget caps the data transfer.
const maxExchangeIDs = 1 << 16

// clampIDs truncates a remote id list to the processing cap.
func clampIDs(ids []uint64) []uint64 {
	if len(ids) > maxExchangeIDs {
		return ids[:maxExchangeIDs]
	}
	return ids
}

// Exchange runs one initiator-side exchange of fileID with the engine
// at addr, returning the number of messages that moved in either
// direction. The round's context is bounded by ExchangeTimeout before
// the dial: a blackholed partner must cost one timed-out exchange, not
// a round wedged for as long as the caller's context lives. The same
// context is then bound to the connection (wire.Conn.Bind).
func (e *Engine) Exchange(ctx context.Context, addr string, fileID uint64) (int, error) {
	ids, k, payloadLen := e.snapshotIDs(fileID)
	if len(ids) == 0 {
		return 0, fmt.Errorf("gossip: nothing stored for file %d", fileID)
	}
	ctx, cancel := context.WithTimeout(ctx, e.cfg.ExchangeTimeout)
	defer cancel()
	nc, err := e.cfg.Transport.DialContext(ctx, addr)
	if err != nil {
		return 0, err
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	defer conn.Bind(ctx).Unbind()

	if err := writeJSON(conn, typeOffer, offerMsg{FileID: fileID, K: k, PayloadLen: payloadLen, IDs: ids}); err != nil {
		return 0, err
	}
	var want wantMsg
	if err := readJSON(conn, typeWant, &want); err != nil {
		return 0, err
	}
	if len(want.Want) > e.cfg.Budget {
		want.Want = want.Want[:e.cfg.Budget]
	}
	want.Offer = clampIDs(want.Offer)
	sent, err := e.sendData(conn, fileID, want.Want)
	if err != nil {
		return sent, err
	}
	e.mu.Lock()
	g := e.gens[fileID]
	var pull []uint64
	if g != nil {
		pull = missing(want.Offer, g.ids, e.cfg.Budget)
	}
	e.mu.Unlock()
	if err := writeJSON(conn, typePull, pullMsg{Want: pull}); err != nil {
		return sent, err
	}
	got, _, err := e.readData(conn, fileID, k, payloadLen, typeDone)
	return sent + got, err
}

// serveExchange handles one inbound exchange, bounded by
// ExchangeTimeout and by the engine's lifetime.
func (e *Engine) serveExchange(conn *wire.Conn) error {
	ctx, cancel := context.WithTimeout(e.ctx, e.cfg.ExchangeTimeout)
	defer cancel()
	defer conn.Bind(ctx).Unbind()

	var offer offerMsg
	if err := readJSON(conn, typeOffer, &offer); err != nil {
		return err
	}
	if len(offer.IDs) == 0 {
		return fmt.Errorf("gossip: empty offer")
	}
	offer.IDs = clampIDs(offer.IDs)
	e.mu.Lock()
	g := e.genLocked(offer.FileID, offer.K, offer.PayloadLen)
	wantIDs := missing(offer.IDs, g.ids, e.cfg.Budget)
	offerBack := surplus(g.ids, offer.IDs, e.cfg.Budget)
	e.mu.Unlock()

	if err := writeJSON(conn, typeWant, wantMsg{Want: wantIDs, Offer: offerBack}); err != nil {
		return err
	}
	_, pullPayload, err := e.readData(conn, offer.FileID, offer.K, offer.PayloadLen, typePull)
	if err != nil {
		return err
	}
	var pull pullMsg
	if err := json.Unmarshal(pullPayload, &pull); err != nil {
		return err
	}
	if len(pull.Want) > e.cfg.Budget {
		pull.Want = pull.Want[:e.cfg.Budget]
	}
	if _, err := e.sendData(conn, offer.FileID, pull.Want); err != nil {
		return err
	}
	return conn.Send(typeDone, nil)
}
