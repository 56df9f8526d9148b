package client

// Per-peer health tracking for the resilient fetch path (DESIGN.md
// §15). Every peer the client talks to accumulates an EWMA of stream
// latency, failure and shed counts, and a circuit-breaker state
// (breaker.go). The hedged scheduling policy (hedge.go) ranks peers by
// these scores, and the hedge delay — how long a stream may make no
// progress before it is re-issued on the next-healthiest peer — is
// derived from a small reservoir of recent stream latencies (p95 with
// headroom) unless Options.HedgeDelay pins it.

import (
	"sort"
	"sync"
	"time"
)

const (
	// latencyAlpha is the EWMA smoothing factor for per-peer stream
	// latency: recent transfers dominate, old history decays in ~3
	// samples.
	latencyAlpha = 0.3

	// latencyReservoirSize bounds the shared recent-latency ring that
	// feeds the p95 hedge-delay estimate.
	latencyReservoirSize = 64

	// minHedgeSamples gates the adaptive estimate; with fewer samples
	// the default delay applies.
	minHedgeSamples = 8

	// hedgeHeadroom multiplies the p95 latency into the hedge delay so
	// ordinary tail transfers do not trigger spurious hedges.
	hedgeHeadroom = 1.5

	// minHedgeDelay / maxHedgeDelay clamp the adaptive estimate.
	minHedgeDelay = 20 * time.Millisecond
	maxHedgeDelay = 2 * time.Second

	// shedScoreCap bounds the score penalty accumulated from sheds so a
	// long-lived client can still rehabilitate a once-busy peer.
	shedScoreCap = 25
)

// DefaultHedgeDelay is the hedge delay used until enough stream
// latencies have been observed to estimate a p95.
const DefaultHedgeDelay = 300 * time.Millisecond

// HealthSnapshot reports one peer's accumulated health state; see
// Client.PeerHealth.
type HealthSnapshot struct {
	// Latency is the EWMA of completed stream latencies (0 = no sample).
	Latency time.Duration

	// Successes / Failures / Sheds count classified stream outcomes.
	Successes int64
	Failures  int64
	Sheds     int64

	// ConsecFails is the current run of uninterrupted failures.
	ConsecFails int

	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string
}

// peerHealth is one peer's mutable health record; all fields are
// guarded by the owning registry's mutex.
type peerHealth struct {
	ewmaSeconds float64
	successes   int64
	failures    int64
	sheds       int64
	consecFails int

	state     breakerState
	openUntil time.Time
	cooldown  time.Duration
	probing   bool
}

// healthRegistry aggregates per-peer health plus the shared latency
// reservoir. One registry per Client; safe for concurrent use.
type healthRegistry struct {
	mu    sync.Mutex
	peers map[string]*peerHealth
	now   func() time.Time // injectable clock for breaker tests

	lat    [latencyReservoirSize]time.Duration
	latLen int
	latIdx int

	threshold     int
	cooldown      time.Duration
	hedgeOverride time.Duration

	m *clientMetrics
}

func newHealthRegistry(m *clientMetrics, opt Options) *healthRegistry {
	return &healthRegistry{
		peers:         make(map[string]*peerHealth),
		now:           time.Now,
		threshold:     opt.BreakerThreshold,
		cooldown:      opt.BreakerCooldown,
		hedgeOverride: opt.HedgeDelay,
		m:             m,
	}
}

// peerLocked returns addr's record, creating it on first sight.
func (h *healthRegistry) peerLocked(addr string) *peerHealth {
	p, ok := h.peers[addr]
	if !ok {
		p = &peerHealth{}
		h.peers[addr] = p
	}
	return p
}

// recordSuccess folds one well-behaved stream outcome in. latency > 0
// additionally feeds the EWMA and the shared hedge-delay reservoir; a
// zero latency only resets the failure run (used for outcomes that
// prove liveness without timing a full transfer). Any success closes an
// open or half-open breaker.
func (h *healthRegistry) recordSuccess(addr string, latency time.Duration) {
	h.mu.Lock()
	p := h.peerLocked(addr)
	p.successes++
	p.consecFails = 0
	if latency > 0 {
		sec := latency.Seconds()
		if p.ewmaSeconds == 0 {
			p.ewmaSeconds = sec
		} else {
			p.ewmaSeconds += latencyAlpha * (sec - p.ewmaSeconds)
		}
		h.lat[h.latIdx] = latency
		h.latIdx = (h.latIdx + 1) % latencyReservoirSize
		if h.latLen < latencyReservoirSize {
			h.latLen++
		}
	}
	recovered := p.closeBreakerLocked()
	h.mu.Unlock()
	if recovered {
		h.m.breakerRecoveries.Inc()
		h.m.breakerOpen.Add(-1)
	}
}

// recordFailure folds one failed stream outcome in, tripping the
// breaker when the consecutive-failure run reaches the threshold and
// doubling the quarantine when a half-open probe fails.
func (h *healthRegistry) recordFailure(addr string) {
	h.mu.Lock()
	p := h.peerLocked(addr)
	p.failures++
	p.consecFails++
	tripped := p.tripLocked(h.now(), h.threshold, h.cooldown)
	h.mu.Unlock()
	if tripped {
		h.m.breakerOpens.Inc()
		h.m.breakerOpen.Add(1)
	}
}

// recordShed notes a BUSY shed from an overloaded peer. A shed is not a
// failure — the peer answered, correctly, that it is saturated — so it
// feeds the ranking score and never trips the breaker. It does prove
// liveness, though: an open or half-open breaker is closed, releasing
// any claimed half-open probe slot, so a probe stream that ends in a
// shed cannot strand the peer in half-open with its slot claimed
// forever. The capped shed score keeps chronically saturated peers
// down-ranked instead.
func (h *healthRegistry) recordShed(addr string) {
	h.mu.Lock()
	p := h.peerLocked(addr)
	p.sheds++
	recovered := p.closeBreakerLocked()
	h.mu.Unlock()
	if recovered {
		h.m.breakerRecoveries.Inc()
		h.m.breakerOpen.Add(-1)
	}
}

// abandonProbe hands back a half-open probe slot whose stream ended
// before it reached the peer, so it proved nothing either way: the
// breaker returns to open, its lapsed cooldown leaving the peer a
// probe candidate again.
func (h *healthRegistry) abandonProbe(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[addr]; ok && p.state == breakerHalfOpen && p.probing {
		p.state = breakerOpen
		p.probing = false
	}
}

// scoreLocked ranks a peer for the hedge ladder: lower is healthier.
// EWMA latency dominates; each consecutive failure costs half a second
// of equivalent latency and accumulated sheds add a capped nudge away
// from chronically saturated peers.
func (p *peerHealth) scoreLocked() float64 {
	sheds := float64(p.sheds)
	if sheds > shedScoreCap {
		sheds = shedScoreCap
	}
	return p.ewmaSeconds + 0.5*float64(p.consecFails) + 0.02*sheds
}

// order ranks a chunk's peers for the hedge ladder. The first return
// value is the ladder: closed-breaker peers healthiest-first, rotated
// by rotate so concurrent chunks spread across equally healthy peers,
// followed by cooled-down quarantined peers (probe candidates).
// probeFrom is the index where those candidates begin (== len when
// there are none). Peers still inside their breaker cooldown are
// excluded entirely.
func (h *healthRegistry) order(addrs []string, rotate int) (ladder []string, probeFrom int) {
	type ranked struct {
		addr  string
		score float64
	}
	h.mu.Lock()
	now := h.now()
	healthy := make([]ranked, 0, len(addrs))
	var probes []string
	for _, addr := range addrs {
		p, ok := h.peers[addr]
		switch {
		case !ok || p.state == breakerClosed:
			var score float64
			if ok {
				score = p.scoreLocked()
			}
			healthy = append(healthy, ranked{addr: addr, score: score})
		case p.allowLocked(now):
			probes = append(probes, addr)
		}
	}
	h.mu.Unlock()
	sort.SliceStable(healthy, func(i, j int) bool { return healthy[i].score < healthy[j].score })
	ladder = make([]string, 0, len(healthy)+len(probes))
	if n := len(healthy); n > 0 {
		r := rotate % n
		for i := 0; i < n; i++ {
			ladder = append(ladder, healthy[(r+i)%n].addr)
		}
	}
	probeFrom = len(ladder)
	return append(ladder, probes...), probeFrom
}

// hedgeDelay returns how long a chunk stream may sit without progress
// before a hedge is launched: the configured override if set, otherwise
// p95 of recent stream latencies with headroom, otherwise the default.
func (h *healthRegistry) hedgeDelay() time.Duration {
	if h.hedgeOverride > 0 {
		return h.hedgeOverride
	}
	h.mu.Lock()
	n := h.latLen
	var buf []time.Duration
	if n >= minHedgeSamples {
		buf = make([]time.Duration, n)
		copy(buf, h.lat[:n])
	}
	h.mu.Unlock()
	if buf == nil {
		return DefaultHedgeDelay
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	p95 := buf[len(buf)*95/100]
	d := time.Duration(float64(p95) * hedgeHeadroom)
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if d > maxHedgeDelay {
		d = maxHedgeDelay
	}
	return d
}

// snapshot reports addr's current health; the zero snapshot for a peer
// never seen reads as closed.
func (h *healthRegistry) snapshot(addr string) HealthSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[addr]
	if !ok {
		return HealthSnapshot{Breaker: breakerClosed.String()}
	}
	return HealthSnapshot{
		Latency:     time.Duration(p.ewmaSeconds * float64(time.Second)),
		Successes:   p.successes,
		Failures:    p.failures,
		Sheds:       p.sheds,
		ConsecFails: p.consecFails,
		Breaker:     p.state.String(),
	}
}

// PeerHealth reports the client's accumulated health view of one peer
// address: latency EWMA, outcome counts and circuit-breaker state.
func (c *Client) PeerHealth(addr string) HealthSnapshot {
	return c.health.snapshot(addr)
}
