package main

// Tracing for the per-layer run. Every span and counter here is
// recorded from the benchmark's own wrappers around public seams of
// the program (client.Options.Transport, peer.Config.Transport, Store
// and Allocator); the program itself is not modified. The wrappers are
// installed only for the traced run, so the untraced run pays for none
// of them; a nil *Tracer records nothing.

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asymshare/internal/fairshare"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/transport"
)

// Span is one timed call into a layer. Spans of one fetch or share
// carry its Op identifier; Parent links a span to the one that caused
// it. Times are seconds since the tracer started.
type Span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Op     string             `json:"op,omitempty"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Dur returns the span's length in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

type spanKey struct{}

// spanRef is what a context carries so that calls made under it can
// name their parent span and operation.
type spanRef struct {
	id int64
	op string
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *Tracer
	s     Span
	start time.Time
}

// begin starts a span named name under whatever span ctx carries. op,
// when non-empty, starts a new operation; otherwise the span inherits
// the operation of its parent.
func (t *Tracer) begin(ctx context.Context, name, op string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	now := time.Now()
	sp := &openSpan{t: t, start: now, s: Span{ID: t.ids.Add(1), Name: name, Op: op}}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		sp.s.Parent = ref.id
		if op == "" {
			sp.s.Op = ref.op
		}
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id: sp.s.ID, op: sp.s.Op}), sp
}

// end closes the span, attaching attrs, and returns its duration.
func (sp *openSpan) end(attrs map[string]float64) time.Duration {
	if sp == nil {
		return 0
	}
	now := time.Now()
	sp.s.Start = sp.start.Sub(sp.t.t0).Seconds()
	sp.s.End = now.Sub(sp.t.t0).Seconds()
	sp.s.Attrs = attrs
	sp.t.mu.Lock()
	sp.t.spans = append(sp.t.spans, sp.s)
	sp.t.mu.Unlock()
	return now.Sub(sp.start)
}

// Spans returns a copy of every ended span, ordered by start time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteFile writes head and then every span, one JSON object per
// line.
func (t *Tracer) WriteFile(path string, head any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(head); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTime returns, for every span named name, its duration minus the
// time covered by the attribute coveredAttr of its direct children
// (summed), added over all such spans that start at or after from.
// It is how core.share_self_s strips the transport writes out of a
// ShareFile call.
func selfTime(spans []Span, name, coveredAttr string, from float64) float64 {
	covered := make(map[int64]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.Attrs[coveredAttr]
		}
	}
	var total float64
	for _, s := range spans {
		if s.Name != name || s.Start < from {
			continue
		}
		if self := s.Dur() - covered[s.ID]; self > 0 {
			total += self
		}
	}
	return total
}

// counter names one of the totals the wrappers keep. Durations are
// nanoseconds.
type counter int

const (
	dials       counter = iota
	dialNs              // client: time in DialContext
	readNs              // client conns: time blocked in Read
	bytesIn             // client conns: bytes read
	peerWriteNs         // peer conns: time blocked in Write
	getCalls            // store Messages and Get
	getNs
	putCalls
	putNs
	allocCalls
	allocNs
	numCounters
)

// counters is a point-in-time copy of the totals, so the timed window
// can be taken as a difference of two copies.
type counters [numCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// layerStats holds what the wrappers record at each seam.
type layerStats struct {
	totals [numCounters]atomic.Int64

	grantMu  sync.Mutex
	minGrant float64 // smallest grant to an active requester
	minSeen  bool
	hiShares []float64
}

func (st *layerStats) add(c counter, v int64) { st.totals[c].Add(v) }

func (st *layerStats) addSince(c counter, start time.Time) { st.add(c, int64(time.Since(start))) }

func (st *layerStats) snapshot() counters {
	var c counters
	for i := range c {
		c[i] = st.totals[i].Load()
	}
	return c
}

// resetGrants starts the grant observations afresh at the window
// start, so set-up traffic does not count.
func (st *layerStats) resetGrants() {
	st.grantMu.Lock()
	st.minGrant, st.minSeen = 0, false
	st.hiShares = st.hiShares[:0]
	st.grantMu.Unlock()
}

// grants returns the smallest grant seen (0 when the allocator never
// ran) and the mean share of the high-standing requester over the
// allocations in which it competed.
func (st *layerStats) grants() (minGrant, hiShare float64) {
	st.grantMu.Lock()
	defer st.grantMu.Unlock()
	return st.minGrant, mean(st.hiShares)
}

// clientTransport times dials and wraps every client connection.
type clientTransport struct {
	inner transport.Transport
	tr    *Tracer
	st    *layerStats
}

func (c clientTransport) Listen(addr string) (net.Listener, error) { return c.inner.Listen(addr) }

func (c clientTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	dctx, sp := c.tr.begin(ctx, "transport.dial", "")
	start := time.Now()
	conn, err := c.inner.DialContext(dctx, addr)
	c.st.add(dials, 1)
	c.st.addSince(dialNs, start)
	sp.end(nil)
	if err != nil {
		return nil, err
	}
	_, csp := c.tr.begin(ctx, "transport.conn", "")
	return &clientConn{Conn: conn, st: c.st, sp: csp}, nil
}

// clientConn accumulates the time the client spends blocked in Read
// and Write; its span closes with the connection.
type clientConn struct {
	net.Conn
	st        *layerStats
	sp        *openSpan
	readNs    atomic.Int64
	writeNs   atomic.Int64
	bytesIn   atomic.Int64
	closeOnce sync.Once
}

func (c *clientConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	d := int64(time.Since(start))
	c.readNs.Add(d)
	c.bytesIn.Add(int64(n))
	c.st.add(readNs, d)
	c.st.add(bytesIn, int64(n))
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs.Add(int64(time.Since(start)))
	return n, err
}

func (c *clientConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(func() {
		c.sp.end(map[string]float64{
			"read_blocked_s":  float64(c.readNs.Load()) / 1e9,
			"write_blocked_s": float64(c.writeNs.Load()) / 1e9,
			"bytes_in":        float64(c.bytesIn.Load()),
		})
	})
	return err
}

// peerTransport wraps a peer's listener so every accepted connection
// reports how long the peer's writes block.
type peerTransport struct {
	inner transport.Transport
	st    *layerStats
}

func (p peerTransport) Listen(addr string) (net.Listener, error) {
	ln, err := p.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return peerListener{Listener: ln, st: p.st}, nil
}

func (p peerTransport) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	return p.inner.DialContext(ctx, addr)
}

type peerListener struct {
	net.Listener
	st *layerStats
}

func (l peerListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return peerConn{Conn: conn, st: l.st}, nil
}

type peerConn struct {
	net.Conn
	st *layerStats
}

func (c peerConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.st.addSince(peerWriteNs, start)
	return n, err
}

// tracedStore times the store calls a peer makes. Reads (Messages and
// Get) get a span each; a Put is one message, so it is only counted.
type tracedStore struct {
	store.Store
	tr *Tracer
	st *layerStats
}

func (s tracedStore) Put(msg *rlnc.Message) error {
	start := time.Now()
	err := s.Store.Put(msg)
	s.st.add(putCalls, 1)
	s.st.addSince(putNs, start)
	return err
}

func (s tracedStore) Messages(fileID uint64) ([]*rlnc.Message, error) {
	_, sp := s.tr.begin(context.Background(), "store.get", "")
	start := time.Now()
	msgs, err := s.Store.Messages(fileID)
	s.st.add(getCalls, 1)
	s.st.addSince(getNs, start)
	sp.end(nil)
	return msgs, err
}

func (s tracedStore) Get(fileID, messageID uint64) (*rlnc.Message, error) {
	_, sp := s.tr.begin(context.Background(), "store.get", "")
	start := time.Now()
	msg, err := s.Store.Get(fileID, messageID)
	s.st.add(getCalls, 1)
	s.st.addSince(getNs, start)
	sp.end(nil)
	return msg, err
}

// tracedAllocator times each allocation and records the grants it
// hands out. hi, when set, names the high-standing requester whose
// share of each contested allocation is kept.
type tracedAllocator struct {
	inner fairshare.Allocator
	tr    *Tracer
	st    *layerStats
	hi    fairshare.ID
}

func (a tracedAllocator) Allocate(req fairshare.AllocRequest) fairshare.Grants {
	_, sp := a.tr.begin(context.Background(), "fairshare.allocate", "")
	start := time.Now()
	grants := a.inner.Allocate(req)
	a.st.add(allocCalls, 1)
	a.st.addSince(allocNs, start)
	sp.end(map[string]float64{"requesters": float64(len(grants))})

	var total, hi float64
	hiSeen := false
	a.st.grantMu.Lock()
	for _, g := range grants {
		total += g.Rate
		if !a.st.minSeen || g.Rate < a.st.minGrant {
			a.st.minGrant, a.st.minSeen = g.Rate, true
		}
		if a.hi != "" && g.ID == a.hi {
			hi, hiSeen = g.Rate, true
		}
	}
	if hiSeen && len(grants) > 1 && total > 0 {
		a.st.hiShares = append(a.st.hiShares, hi/total)
	}
	a.st.grantMu.Unlock()
	return grants
}
