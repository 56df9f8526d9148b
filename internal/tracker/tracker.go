// Package tracker implements the out-of-band content-location service
// the paper assumes (Sec. II: "services like BitTorrent assume some
// out-of-band mechanisms to locate content"). Owners announce which
// peers hold messages of a file-id; users look the set up before
// fetching. The tracker is soft-state: announcements expire unless
// refreshed, so departed peers age out.
//
// The protocol is three JSON-over-frame messages on the asymshare wire
// framing: ANNOUNCE {fileID, addr, ttl}, LOOKUP {fileID} and ADDRS
// {addrs}. The tracker is discovery-only — it never sees message
// payloads, digests or secrets.
package tracker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"asymshare/internal/metrics"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// Frame types carried over the wire framing, in a range disjoint from
// the peer protocol.
const (
	typeAnnounce wire.Type = 64 + iota
	typeLookup
	typeAddrs
	typeOK
)

// DefaultTTL is how long an announcement lives without refresh.
const DefaultTTL = 10 * time.Minute

// ErrBadRequest is returned for malformed tracker messages.
var ErrBadRequest = errors.New("tracker: malformed request")

type announceMsg struct {
	FileID uint64 `json:"fileId"`
	Addr   string `json:"addr"`
	TTLSec int    `json:"ttlSec,omitempty"`
}

type lookupMsg struct {
	FileID uint64 `json:"fileId"`
}

type addrsMsg struct {
	Addrs []string `json:"addrs"`
}

type entry struct {
	addr    string
	expires time.Time
}

// Exported tracker metric names (see DESIGN.md §7).
const (
	MetricAnnounces = "tracker_announces_total"
	MetricLookups   = "tracker_lookups_total"
)

// Server is a tracker instance.
type Server struct {
	maxTTL time.Duration
	now    func() time.Time
	tr     transport.Transport

	announces *metrics.Counter
	lookups   *metrics.Counter

	mu     sync.Mutex
	files  map[uint64]map[string]entry
	conns  map[*wire.Conn]struct{} // open client connections, closed by Close
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// NewServer returns a tracker. maxTTL caps client-requested TTLs; zero
// means DefaultTTL.
func NewServer(maxTTL time.Duration) *Server {
	if maxTTL <= 0 {
		maxTTL = DefaultTTL
	}
	s := &Server{
		maxTTL: maxTTL,
		now:    time.Now,
		files:  make(map[uint64]map[string]entry),
		conns:  make(map[*wire.Conn]struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Instrument attaches announce/lookup counters. Call before Start; a
// nil registry leaves the server uninstrumented.
func (s *Server) Instrument(reg *metrics.Registry) {
	s.announces = reg.Counter(MetricAnnounces, "Announce requests accepted.")
	s.lookups = reg.Counter(MetricLookups, "Lookup requests served.")
}

// SetTransport swaps the listener transport (nil keeps real TCP).
// Call before Start; tests attach an in-memory netsim host here.
func (s *Server) SetTransport(tr transport.Transport) { s.tr = tr }

// Start listens and serves.
func (s *Server) Start(addr string) error {
	tr := s.tr
	if tr == nil {
		tr = transport.Default
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("tracker: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("tracker: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listen address, or nil before Start.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the tracker and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*wire.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close() // unblocks its handler's read
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := transport.Accept(s.ln, s.ctx.Done(), nil)
		if err != nil {
			return
		}
		conn := wire.NewConn(nc)
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			for s.serve(conn) {
			}
		}()
	}
}

// track registers an open connection for Close to close, reporting
// false once the server is closed.
func (s *Server) track(conn *wire.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrack closes a connection whose handler is done with it.
func (s *Server) untrack(conn *wire.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// serve answers one request, reporting whether the connection stays
// open for another.
func (s *Server) serve(conn *wire.Conn) bool {
	t, b, err := conn.Next()
	if err != nil {
		return false
	}
	defer b.Release()
	switch t {
	case typeAnnounce:
		var msg announceMsg
		if err := json.Unmarshal(b.Bytes(), &msg); err != nil || msg.Addr == "" {
			_ = conn.Reject(wire.CodeBadRequest, "malformed announce")
			return false
		}
		s.announce(msg)
		s.announces.Inc()
		return conn.Send(typeOK, nil) == nil
	case typeLookup:
		var msg lookupMsg
		if err := json.Unmarshal(b.Bytes(), &msg); err != nil {
			_ = conn.Reject(wire.CodeBadRequest, "malformed lookup")
			return false
		}
		blob, err := json.Marshal(addrsMsg{Addrs: s.Lookup(msg.FileID)})
		if err != nil {
			return false
		}
		s.lookups.Inc()
		return conn.Send(typeAddrs, blob) == nil
	case wire.TypeBye:
		return false
	default:
		_ = conn.Reject(wire.CodeBadRequest, "unexpected frame "+t.String())
		return false
	}
}

func (s *Server) announce(msg announceMsg) {
	ttl := s.maxTTL
	if msg.TTLSec > 0 {
		if requested := time.Duration(msg.TTLSec) * time.Second; requested < ttl {
			ttl = requested
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.files[msg.FileID]
	if !ok {
		m = make(map[string]entry)
		s.files[msg.FileID] = m
	}
	m[msg.Addr] = entry{addr: msg.Addr, expires: s.now().Add(ttl)}
}

// Lookup returns the live peer addresses for a file-id, sorted.
func (s *Server) Lookup(fileID uint64) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.files[fileID]
	now := s.now()
	out := make([]string, 0, len(m))
	for addr, e := range m {
		if e.expires.Before(now) {
			delete(m, addr)
			continue
		}
		out = append(out, addr)
	}
	if len(m) == 0 {
		delete(s.files, fileID)
	}
	sort.Strings(out)
	return out
}

// FileCount returns the number of file-ids with live announcements.
func (s *Server) FileCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// Announce registers addr as holding messages of fileID with the given
// tracker over real TCP. A zero ttl requests the tracker's maximum.
func Announce(ctx context.Context, trackerAddr string, fileID uint64, peerAddr string, ttl time.Duration) error {
	return AnnounceVia(ctx, transport.Default, trackerAddr, fileID, peerAddr, ttl)
}

// AnnounceVia is Announce over an explicit transport.
func AnnounceVia(ctx context.Context, tr transport.Transport, trackerAddr string, fileID uint64, peerAddr string, ttl time.Duration) error {
	msg := announceMsg{FileID: fileID, Addr: peerAddr, TTLSec: int(ttl / time.Second)}
	return call(ctx, tr, trackerAddr, "announce", typeAnnounce, msg, typeOK, nil)
}

// Lookup queries a tracker for the peers holding fileID over real
// TCP.
func Lookup(ctx context.Context, trackerAddr string, fileID uint64) ([]string, error) {
	return LookupVia(ctx, transport.Default, trackerAddr, fileID)
}

// LookupVia is Lookup over an explicit transport.
func LookupVia(ctx context.Context, tr transport.Transport, trackerAddr string, fileID uint64) ([]string, error) {
	var msg addrsMsg
	if err := call(ctx, tr, trackerAddr, "lookup", typeLookup, lookupMsg{FileID: fileID}, typeAddrs, &msg); err != nil {
		return nil, err
	}
	return msg.Addrs, nil
}

// call runs one JSON request/reply exchange with the tracker at addr,
// bound to ctx, and decodes the reply into resp unless it is nil.
func call(ctx context.Context, tr transport.Transport, addr, verb string, t wire.Type, req any, want wire.Type, resp any) error {
	if tr == nil {
		tr = transport.Default
	}
	blob, err := json.Marshal(req)
	if err != nil {
		return err
	}
	nc, err := tr.DialContext(ctx, addr)
	if err != nil {
		return fmt.Errorf("tracker: dial %s: %w", addr, err)
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	reply, err := conn.Call(ctx, t, blob, want)
	if err != nil {
		return fmt.Errorf("tracker: %s: %w", verb, err)
	}
	if resp != nil {
		err = json.Unmarshal(reply.Bytes(), resp)
	}
	reply.Release()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	_ = conn.Send(wire.TypeBye, nil) // the reply has answered; BYE is a courtesy
	return nil
}

var _ io.Closer = (*Server)(nil)
