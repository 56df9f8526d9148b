// Package netbench runs the paper's fairness experiments over the real
// TCP stack rather than the slot simulator — the "dynamic real-time
// environment" the paper lists as future work (Sec. VI-A).
//
// Each participant is one user/peer pair sharing a single identity (as
// in the paper, "each user corresponds to one peer on the network"):
// the peer stores other participants' encoded generations and serves
// them at a token-bucket-shaped rate divided by the fairshare
// allocator; the user fetches its own file from everyone in parallel
// and then reports per-peer receipts back to its own peer, closing the
// Eq. (2) credit loop over the wire.
package netbench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

// ErrBadConfig is returned for invalid experiment configurations.
var ErrBadConfig = errors.New("netbench: invalid configuration")

// PeerSpec describes one participant.
type PeerSpec struct {
	// Name labels the participant in results.
	Name string

	// UploadBytesPerSec shapes the peer's upload link; zero or negative
	// means unshaped.
	UploadBytesPerSec float64

	// Withhold makes the peer refuse to serve anyone (a freeloader that
	// still downloads). Its user still fetches.
	Withhold bool

	// Idle makes the user skip fetching (a pure contributor).
	Idle bool
}

// Config describes the experiment.
type Config struct {
	Peers []PeerSpec

	// DataBytes is the size of the generation each participant shares;
	// zero means 64 KiB.
	DataBytes int

	// Rounds is how many concurrent fetch rounds to run; zero means 3.
	Rounds int

	// FieldBits/M set the coding plan; zero means GF(2^8) with m=2048.
	FieldBits uint
	M         int

	// ReallocInterval is the peers' allocator tick; zero means 100 ms.
	ReallocInterval time.Duration

	// StreamBurst is the per-stream shaping burst in bytes; zero keeps
	// the peer default (64 KiB). Small bursts make shaping bite on
	// small generations.
	StreamBurst float64

	// Seed drives payload generation.
	Seed int64

	// CollectMetrics gives every participant its own metrics registry
	// (peer + client instrumented) and samples each peer's
	// per-requester granted-rate gauges throughout every round; the
	// samples land in Result.GrantSamples. Each participant needs a
	// private registry because the granted-rate series are labelled by
	// requester fingerprint and would collide in a shared one.
	CollectMetrics bool
}

// GrantSample is one observation of a peer's allocator output: the
// upload rate peer granted to requester during a round (the last
// non-zero gauge reading of that round). It is the real-network
// counterpart of the simulator's per-slot mu_ij(t).
type GrantSample struct {
	Round       int
	Peer        string
	Requester   string
	BytesPerSec float64
}

// Result holds per-participant, per-round achieved goodput.
type Result struct {
	Names []string

	// RateBytesPerSec[i][r] is participant i's goodput in round r
	// (0 for idle users).
	RateBytesPerSec [][]float64

	// Ledgers are the peers' final receipt ledgers.
	Ledgers []fairshare.Book

	// GrantSamples holds per-round allocator grants when
	// Config.CollectMetrics is set, ordered by (round, peer, requester).
	GrantSamples []GrantSample

	// Registries are the per-participant metrics registries when
	// Config.CollectMetrics is set (indexed like Names), for callers
	// that want more than the grant samples.
	Registries []*metrics.Registry
}

// MeanRate returns participant i's mean goodput over rounds [from, to).
func (r *Result) MeanRate(i, from, to int) float64 {
	series := r.RateBytesPerSec[i]
	if from < 0 {
		from = 0
	}
	if to > len(series) {
		to = len(series)
	}
	if to <= from {
		return 0
	}
	var sum float64
	for _, v := range series[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

type participant struct {
	spec   PeerSpec
	id     *auth.Identity
	node   *peer.Node
	client *client.Client
	params rlnc.Params
	fileID uint64
	data   []byte
	reg    *metrics.Registry // nil unless Config.CollectMetrics
}

// Run executes the experiment.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 peers", ErrBadConfig)
	}
	dataBytes := cfg.DataBytes
	if dataBytes <= 0 {
		dataBytes = 64 << 10
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	fieldBits := cfg.FieldBits
	if fieldBits == 0 {
		fieldBits = gf.Bits8
	}
	m := cfg.M
	if m <= 0 {
		m = 2048
	}
	realloc := cfg.ReallocInterval
	if realloc <= 0 {
		realloc = 100 * time.Millisecond
	}
	field, err := gf.New(fieldBits)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Boot all participants.
	parts := make([]*participant, len(cfg.Peers))
	secret := make([]byte, rlnc.SecretLen)
	rng.Read(secret)
	for i, spec := range cfg.Peers {
		id, err := auth.NewIdentity()
		if err != nil {
			return nil, err
		}
		var alloc fairshare.Allocator
		if spec.Withhold {
			alloc = fairshare.Withhold{}
		}
		var reg *metrics.Registry
		if cfg.CollectMetrics {
			reg = metrics.NewRegistry()
		}
		node, err := peer.New(peer.Config{
			Identity:          id,
			Store:             store.NewMemory(),
			Owner:             id.Public(),
			UploadBytesPerSec: spec.UploadBytesPerSec,
			Allocator:         alloc,
			ReallocInterval:   realloc,
			StreamBurst:       cfg.StreamBurst,
			Metrics:           reg,
		})
		if err != nil {
			return nil, err
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		c, err := client.New(id, nil)
		if err != nil {
			node.Close()
			return nil, err
		}
		c.Instrument(reg)
		params, err := rlnc.ParamsForSize(field, dataBytes, m)
		if err != nil {
			node.Close()
			return nil, err
		}
		data := make([]byte, dataBytes)
		rng.Read(data)
		parts[i] = &participant{
			spec:   spec,
			id:     id,
			node:   node,
			client: c,
			params: params,
			fileID: 1000 + uint64(i),
			data:   data,
			reg:    reg,
		}
	}
	defer func() {
		for _, p := range parts {
			if p != nil && p.node != nil {
				p.node.Close()
			}
		}
	}()

	// Initialization phase: everyone disseminates its generation to
	// every peer (including its own).
	for i, p := range parts {
		enc, err := rlnc.NewEncoder(p.params, p.fileID, secret, p.data)
		if err != nil {
			return nil, err
		}
		for j, q := range parts {
			batch, err := enc.BatchForPeer(j, p.params.K)
			if err != nil {
				return nil, err
			}
			if err := p.client.Disseminate(ctx, q.node.Addr().String(), batch); err != nil {
				return nil, fmt.Errorf("netbench: disseminate %d->%d: %w", i, j, err)
			}
		}
	}

	addrs := make([]string, len(parts))
	for i, p := range parts {
		addrs[i] = p.node.Addr().String()
	}

	res := &Result{
		Names:           make([]string, len(parts)),
		RateBytesPerSec: make([][]float64, len(parts)),
		Ledgers:         make([]fairshare.Book, len(parts)),
	}
	for i, p := range parts {
		res.Names[i] = p.spec.Name
		res.RateBytesPerSec[i] = make([]float64, rounds)
		res.Ledgers[i] = p.node.Ledger()
	}
	// Requester fingerprints as they appear in granted-rate labels,
	// mapped back to participant names.
	nameOf := make(map[string]string, len(parts))
	if cfg.CollectMetrics {
		res.Registries = make([]*metrics.Registry, len(parts))
		for i, p := range parts {
			res.Registries[i] = p.reg
			nameOf[p.id.Fingerprint()] = p.spec.Name
		}
	}

	// Fetch rounds: every non-idle user fetches its own file from all
	// peers concurrently, then feeds receipts back to its own peer.
	for round := 0; round < rounds; round++ {
		stopSampler := startGrantSampler(cfg.CollectMetrics, realloc, parts, nameOf)
		var wg sync.WaitGroup
		errs := make([]error, len(parts))
		for i, p := range parts {
			if p.spec.Idle {
				continue
			}
			wg.Add(1)
			go func(i int, p *participant) {
				defer wg.Done()
				data, stats, err := p.client.Fetch(ctx, client.FetchRequest{
					Peers: addrs, Params: p.params, FileID: p.fileID, Secret: secret})
				if err != nil {
					errs[i] = err
					return
				}
				res.RateBytesPerSec[i][round] = stats.EffectiveRate(len(data))
				if err := p.client.SendFeedback(ctx, p.node.Addr().String(), stats.BytesFrom); err != nil {
					errs[i] = err
				}
			}(i, p)
		}
		wg.Wait()
		res.GrantSamples = append(res.GrantSamples, stopSampler(round)...)
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("netbench: round %d peer %d: %w", round, i, err)
			}
		}
	}
	return res, nil
}

// startGrantSampler polls every participant's granted-rate gauges once
// per allocator tick for the duration of one round. The gauges report
// *current* grants and drop to zero when streams finish, so the round's
// record is the last non-zero reading per (peer, requester). The
// returned stop function ends sampling and returns the round's samples
// sorted by (peer, requester); it returns nil when collection is off.
func startGrantSampler(enabled bool, tick time.Duration, parts []*participant,
	nameOf map[string]string) func(round int) []GrantSample {
	if !enabled {
		return func(int) []GrantSample { return nil }
	}
	type key struct{ peer, requester string }
	seen := make(map[key]float64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, p := range parts {
					f, ok := p.reg.Snapshot().Find(peer.MetricGrantedRate)
					if !ok {
						continue
					}
					for _, s := range f.Series {
						if s.Value <= 0 {
							continue
						}
						req := metrics.Get(s.Labels, "requester")
						if name, ok := nameOf[req]; ok {
							req = name
						}
						seen[key{p.spec.Name, req}] = s.Value
					}
				}
			}
		}
	}()
	return func(round int) []GrantSample {
		close(done)
		wg.Wait()
		out := make([]GrantSample, 0, len(seen))
		for k, v := range seen {
			out = append(out, GrantSample{Round: round, Peer: k.peer, Requester: k.requester, BytesPerSec: v})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Peer != out[j].Peer {
				return out[i].Peer < out[j].Peer
			}
			return out[i].Requester < out[j].Requester
		})
		return out
	}
}
