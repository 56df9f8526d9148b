// Package gossip disseminates encoded generations through rumor
// mongering instead of direct per-peer pushes. The home peer seeds a
// generation "hot" and each round pushes it to Fanout random contacts
// drawn from the DHT routing table; receivers turn around and spread it
// themselves, so coverage grows epidemically in O(log n) rounds while
// the home uplink only ever pays for Fanout exchanges per round — the
// asymmetric-channel constraint the paper's direct dissemination model
// strains against at swarm scale.
//
// Exchanges are innovation-aware: peers swap message-id sets first and
// only ship ids the other side lacks. Because every message of a
// generation is minted once by the owner under secret-keyed coefficient
// rows, distinct message-ids are w.h.p. linearly independent up to rank
// k — so "new id" is a rank-increase test that storage peers can run
// without ever holding the coding secret.
//
// A rumor dies locally after MaxIdle consecutive futile exchanges
// (nothing moved either direction), the classic coin-flip death of
// push/pull rumor mongering; the engine still answers inbound pulls for
// generations it has gone quiet about.
package gossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"asymshare/internal/metrics"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

// Defaults for the dissemination knobs.
const (
	DefaultFanout          = 2
	DefaultBudget          = 32
	DefaultMaxIdle         = 3
	DefaultExchangeTimeout = 10 * time.Second
)

// Exported metric names (see DESIGN.md §7).
const (
	MetricRounds     = "gossip_rounds_total"
	MetricInnovative = "gossip_innovative_messages_total"
	MetricDuplicate  = "gossip_duplicate_messages_total"
)

// Config configures an Engine.
type Config struct {
	// Advertise is the gossip listen address other engines dial.
	// Required for Start; an engine that only initiates may omit it.
	Advertise string

	// Transport carries exchanges; nil means real TCP.
	Transport transport.Transport

	// Store holds the generations this engine spreads and receives —
	// usually shared with the co-located storage peer, so gossiped
	// messages are immediately servable. Required.
	Store store.Store

	// Contacts returns up to n gossip addresses of other engines,
	// typically random picks from the co-located DHT node's routing
	// table. Required for Round.
	Contacts func(n int) []string

	// Announce, when set, is called once per generation the first time
	// this engine stores any of its messages — the hook where a storage
	// peer registers itself with discovery so fetchers can find what
	// gossip just delivered.
	Announce func(fileID uint64)

	// Fanout is the number of random partners contacted per hot rumor
	// per round; zero means DefaultFanout.
	Fanout int

	// Budget caps the messages shipped in each direction of one
	// exchange; zero means DefaultBudget.
	Budget int

	// MaxIdle is the number of consecutive futile exchanges after which
	// a rumor goes cold; zero means DefaultMaxIdle.
	MaxIdle int

	// ExchangeTimeout bounds one full exchange; zero means
	// DefaultExchangeTimeout.
	ExchangeTimeout time.Duration

	// RoundInterval, when positive, runs rounds on a background ticker
	// after Start. Zero leaves rounds caller-driven (tests, benchmarks).
	RoundInterval time.Duration

	// Seed seeds partner selection; zero uses a time-derived seed.
	Seed int64

	// Metrics, when set, receives gossip_rounds_total and the
	// innovative/duplicate message counters.
	Metrics *metrics.Registry
}

type engineMetrics struct {
	rounds     *metrics.Counter
	innovative *metrics.Counter
	duplicate  *metrics.Counter
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		rounds:     reg.Counter(MetricRounds, "Gossip rounds driven with at least one hot rumor."),
		innovative: reg.Counter(MetricInnovative, "Messages received carrying a new message-id."),
		duplicate:  reg.Counter(MetricDuplicate, "Messages received whose id was already stored."),
	}
}

// genState is the per-generation rumor state.
type genState struct {
	k          int
	payloadLen int
	ids        map[uint64]struct{}
	hot        bool
	idle       int
	announced  bool
}

// Engine is one gossip participant.
type Engine struct {
	cfg Config
	m   engineMetrics

	mu   sync.Mutex
	gens map[uint64]*genState
	rng  *rand.Rand

	ln      net.Listener
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
	closed  bool
}

// New creates an engine. It does not listen until Start.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, errors.New("gossip: store required")
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.Default
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = DefaultFanout
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = DefaultMaxIdle
	}
	if cfg.ExchangeTimeout <= 0 {
		cfg.ExchangeTimeout = DefaultExchangeTimeout
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	e := &Engine{
		cfg:  cfg,
		m:    newEngineMetrics(cfg.Metrics),
		gens: make(map[uint64]*genState),
		rng:  rand.New(rand.NewSource(seed)),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	return e, nil
}

// Addr returns the engine's gossip address.
func (e *Engine) Addr() string { return e.cfg.Advertise }

// Start begins serving inbound exchanges on the advertise address and,
// when RoundInterval is set, driving background rounds.
func (e *Engine) Start() error {
	if e.cfg.Advertise == "" {
		return errors.New("gossip: advertise address required to start")
	}
	ln, err := e.cfg.Transport.Listen(e.cfg.Advertise)
	if err != nil {
		return err
	}
	return e.StartListener(ln)
}

// StartListener serves inbound exchanges on a pre-bound listener.
func (e *Engine) StartListener(ln net.Listener) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("gossip: engine closed")
	}
	if e.started {
		e.mu.Unlock()
		return errors.New("gossip: already started")
	}
	e.started = true
	e.ln = ln
	e.mu.Unlock()

	e.wg.Add(1)
	go e.acceptLoop(ln)
	if e.cfg.RoundInterval > 0 {
		e.wg.Add(1)
		go e.roundLoop()
	}
	return nil
}

// Close stops the listener and background rounds.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	ln := e.ln
	e.mu.Unlock()
	e.cancel()
	if ln != nil {
		ln.Close()
	}
	e.wg.Wait()
	return nil
}

func (e *Engine) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		nc, err := transport.Accept(ln, e.ctx.Done(), nil)
		if err != nil {
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			conn := wire.NewConn(nc)
			defer conn.Close()
			_ = e.serveExchange(conn)
		}()
	}
}

func (e *Engine) roundLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.RoundInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.ctx.Done():
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(e.ctx, e.cfg.RoundInterval)
			_, _ = e.Round(ctx)
			cancel()
		}
	}
}

// Seed installs a generation's messages (the home peer's freshly minted
// batch) and marks its rumor hot. k is the generation's decode rank and
// payloadLen the packed payload size, both forwarded to receivers so
// they can validate incoming data before a manifest exists.
func (e *Engine) Seed(fileID uint64, k, payloadLen int, msgs []*rlnc.Message) error {
	if len(msgs) == 0 {
		return errors.New("gossip: seed with no messages")
	}
	for _, m := range msgs {
		if m.FileID != fileID {
			return fmt.Errorf("gossip: seed message file-id %d != %d", m.FileID, fileID)
		}
		if err := e.cfg.Store.Put(m); err != nil {
			return err
		}
	}
	e.mu.Lock()
	g := e.genLocked(fileID, k, payloadLen)
	for _, m := range msgs {
		g.ids[m.MessageID] = struct{}{}
	}
	g.hot = true
	g.idle = 0
	announce := e.markAnnouncedLocked(g)
	e.mu.Unlock()
	if announce != nil {
		announce(fileID)
	}
	return nil
}

// genLocked returns (creating if needed) the state for a generation;
// e.mu must be held. Existing store contents are absorbed so an engine
// restarted over a durable store resumes where it left off.
func (e *Engine) genLocked(fileID uint64, k, payloadLen int) *genState {
	g, ok := e.gens[fileID]
	if !ok {
		g = &genState{ids: make(map[uint64]struct{})}
		if msgs, err := e.cfg.Store.Messages(fileID); err == nil {
			for _, m := range msgs {
				g.ids[m.MessageID] = struct{}{}
				if g.payloadLen == 0 {
					g.payloadLen = len(m.Payload)
				}
			}
		}
		e.gens[fileID] = g
	}
	if k > g.k {
		g.k = k
	}
	if payloadLen > 0 && g.payloadLen == 0 {
		g.payloadLen = payloadLen
	}
	return g
}

// markAnnouncedLocked flips the announced flag and returns the hook to
// invoke (outside the lock), or nil.
func (e *Engine) markAnnouncedLocked(g *genState) func(uint64) {
	if g.announced || len(g.ids) == 0 || e.cfg.Announce == nil {
		return nil
	}
	g.announced = true
	return e.cfg.Announce
}

// HotRumors lists the generations this engine is still actively
// spreading.
func (e *Engine) HotRumors() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]uint64, 0, len(e.gens))
	for id, g := range e.gens {
		if g.hot {
			out = append(out, id)
		}
	}
	return out
}

// Round drives one gossip round: for every hot rumor, exchange with
// Fanout random contacts. It returns the number of messages that moved
// (both directions). Rumors with MaxIdle consecutive futile exchanges
// go cold.
func (e *Engine) Round(ctx context.Context) (int, error) {
	if e.cfg.Contacts == nil {
		return 0, errors.New("gossip: no contact source configured")
	}
	e.mu.Lock()
	hot := make([]uint64, 0, len(e.gens))
	for id, g := range e.gens {
		if g.hot {
			hot = append(hot, id)
		}
	}
	e.mu.Unlock()
	if len(hot) == 0 {
		return 0, nil
	}
	e.m.rounds.Inc()

	moved := 0
	var firstErr error
	for _, fileID := range hot {
		partners := e.pickPartners(e.cfg.Fanout)
		if len(partners) == 0 {
			continue
		}
		var wg sync.WaitGroup
		results := make([]int, len(partners))
		errs := make([]error, len(partners))
		for i, addr := range partners {
			wg.Add(1)
			go func(i int, addr string) {
				defer wg.Done()
				results[i], errs[i] = e.Exchange(ctx, addr, fileID)
			}(i, addr)
		}
		wg.Wait()
		genMoved := 0
		failed := 0
		for i := range partners {
			if errs[i] != nil {
				failed++
				if firstErr == nil {
					firstErr = errs[i]
				}
				continue
			}
			genMoved += results[i]
		}
		moved += genMoved
		// Failed exchanges (dead partners, partitions) say nothing about
		// novelty, so only an all-quiet round of completed exchanges
		// counts toward rumor death.
		if genMoved == 0 && failed < len(partners) {
			e.bumpIdle(fileID)
		} else if genMoved > 0 {
			e.resetIdle(fileID)
		}
	}
	return moved, firstErr
}

func (e *Engine) bumpIdle(fileID uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g, ok := e.gens[fileID]; ok && g.hot {
		g.idle++
		if g.idle >= e.cfg.MaxIdle {
			g.hot = false
		}
	}
}

func (e *Engine) resetIdle(fileID uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g, ok := e.gens[fileID]; ok {
		g.idle = 0
	}
}

// pickPartners selects up to n distinct partner addresses, excluding
// this engine itself. Candidates are shuffled with the engine's seeded
// RNG so fanout stays randomized even under a deterministic contact
// source.
func (e *Engine) pickPartners(n int) []string {
	cands := e.cfg.Contacts(n + 2)
	e.mu.Lock()
	e.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	e.mu.Unlock()
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, len(cands))
	for _, addr := range cands {
		if addr == "" || addr == e.cfg.Advertise {
			continue
		}
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		out = append(out, addr)
		if len(out) == n {
			break
		}
	}
	return out
}
