package client

// The fetch engine (DESIGN.md §13). Every download entry point — Fetch
// for one generation, FetchFile and FetchManifest for a whole file,
// StreamFile for in-order playback — is one call of fetchChunks: a
// chunk scheduler over multiplexed PeerSessions, one session per peer
// address for the whole call. Each chunk resolves its peer set from a
// PeerSource when it is scheduled, builds one decode sink, and streams
// into it under the client's scheduling policy: every peer at once by
// default, or the hedged health ladder (hedge.go) with Options.Hedge.
// Per-attempt recovery — redial on abort, BUSY/RETRY_AFTER, retry
// backoff — lives in chunkRun.stream, below both policies.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// fetchFileStreams is how many chunk downloads a manifest fetch keeps
// in flight concurrently over its sessions.
const fetchFileStreams = 4

// FetchRequest names every input of one generation download.
type FetchRequest struct {
	// Peers are the storage peer addresses to download from in
	// parallel.
	Peers []string

	// Params describes the generation's code (field, k, chunk size).
	Params rlnc.Params

	// FileID identifies the generation on the peers.
	FileID uint64

	// Secret is the coefficient-derivation key shared with the owner.
	Secret []byte

	// Digests, if non-nil, pins the owner-published per-message MD5
	// digests and enables authentication of every received message.
	Digests map[uint64]rlnc.Digest

	// DecodeWorkers selects the decode engine. 0 uses the parallel
	// rlnc.Pipeline sized to GOMAXPROCS; > 0 a Pipeline with exactly
	// that many workers; < 0 the sequential decoder (one goroutine,
	// messages serialized through a mutex) — mainly for comparison
	// runs and differential tests.
	DecodeWorkers int
}

// PeerSource resolves the storage peers holding one chunk of a
// manifest. The engine calls it once per chunk, when the chunk is
// scheduled, so discovery can resolve chunk by chunk; calls for
// different chunks may run concurrently.
type PeerSource func(ctx context.Context, chunk int) ([]string, error)

// staticPeers is the PeerSource that gives every chunk the same peers.
func staticPeers(addrs []string) PeerSource {
	return func(context.Context, int) ([]string, error) { return addrs, nil }
}

// decodeSink is what the fetch path needs from a decode engine: the
// concurrent byte-ingesting Sink interface plus final decode. Both
// rlnc.Pipeline and rlnc.SyncSink satisfy it.
type decodeSink interface {
	rlnc.ByteSink
	Decode() ([]byte, error)
}

// newSink builds the decode engine the request asked for. The returned
// telemetry function is nil for the sequential sink.
func (req *FetchRequest) newSink() (decodeSink, func() rlnc.PipelineTelemetry, error) {
	if req.DecodeWorkers < 0 {
		dec, err := rlnc.NewDecoder(req.Params, req.FileID, req.Secret, req.Digests)
		if err != nil {
			return nil, nil, err
		}
		return rlnc.NewSyncSink(dec), nil, nil
	}
	p, err := rlnc.NewPipeline(req.Params, req.FileID, req.Secret, req.Digests,
		rlnc.PipelineConfig{Workers: req.DecodeWorkers})
	if err != nil {
		return nil, nil, err
	}
	return p, p.Telemetry, nil
}

// Fetch downloads one generation from the request's peers and decodes
// it: a one-chunk call of the engine.
func (c *Client) Fetch(ctx context.Context, req FetchRequest) ([]byte, FetchStats, error) {
	var (
		data  []byte
		stats FetchStats
		err   error
	)
	c.fetchChunks(ctx, []FetchRequest{req}, staticPeers(req.Peers), 1, false,
		func(_ int, d []byte, s FetchStats, e error) bool {
			data, stats, err = d, s, e
			return true
		})
	return data, stats, err
}

// FetchFile downloads and reassembles a whole manifest from one peer
// set, enabling the chunk-streaming mode of Sec. III-D: every chunk
// downloads from all of addrs, up to fetchFileStreams chunks at once,
// over one session per peer.
func (c *Client) FetchFile(ctx context.Context, addrs []string, m *chunk.Manifest,
	secret []byte) ([]byte, FetchStats, error) {
	return c.FetchManifest(ctx, m, secret, staticPeers(addrs))
}

// FetchManifest is FetchFile with a per-chunk peer source: ring
// placements and discovery lookups give each chunk its own peer set.
// A peer shared by several chunks is still dialed once per call.
func (c *Client) FetchManifest(ctx context.Context, m *chunk.Manifest, secret []byte,
	peers PeerSource) ([]byte, FetchStats, error) {
	total := FetchStats{BytesFrom: make(map[string]uint64)}
	reqs, err := manifestRequests(m, secret)
	if err != nil {
		return nil, total, err
	}
	start := time.Now()
	pieces := make([][]byte, len(reqs))
	c.fetchChunks(ctx, reqs, peers, fetchFileStreams, false,
		func(i int, data []byte, stats FetchStats, e error) bool {
			if e != nil {
				err = fmt.Errorf("chunk %d: %w", i, e)
				return false
			}
			pieces[i] = data
			total.add(stats)
			return true
		})
	total.Elapsed = time.Since(start)
	if err != nil {
		return nil, total, err
	}
	data, err := chunk.Assemble(m, pieces)
	if err != nil {
		return nil, total, err
	}
	return data, total, nil
}

// manifestRequests validates m and turns each chunk into the request
// the engine fetches.
func manifestRequests(m *chunk.Manifest, secret []byte) ([]FetchRequest, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	reqs := make([]FetchRequest, len(m.Chunks))
	for i, info := range m.Chunks {
		params, err := info.Params(m.Plan)
		if err != nil {
			return nil, err
		}
		reqs[i] = FetchRequest{Params: params, FileID: info.FileID, Secret: secret, Digests: info.Digests}
	}
	return reqs, nil
}

// fetchChunks is the fetch engine. It schedules chunks up to window at
// a time, resolves each chunk's peers when it starts, and hands each
// outcome to deliver: as chunks finish, or in chunk order when ordered
// is set. Ordered mode also bounds look-ahead — chunk i starts only
// after chunk i-window was delivered — so a slow consumer holds the
// fetch back. Scheduling stops once deliver returns false; chunks
// still in flight are cancelled and their outcomes dropped. All of the
// call's sessions are closed before it returns.
func (c *Client) fetchChunks(ctx context.Context, reqs []FetchRequest, peers PeerSource,
	window int, ordered bool, deliver func(i int, data []byte, stats FetchStats, err error) bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pool := newSessionPool(ctx, c)
	defer pool.close()

	type result struct {
		i     int
		data  []byte
		stats FetchStats
		err   error
	}
	results := make(chan result)
	pending := make(map[int]result)
	launched, inflight, next := 0, 0, 0
	for stopped := false; !stopped && next < len(reqs); {
		for launched < len(reqs) && inflight < window && (!ordered || launched < next+window) {
			go func(i int) {
				r := result{i: i}
				addrs, err := peers(ctx, i)
				if err != nil {
					r.err = err
				} else {
					r.data, r.stats, r.err = c.fetchChunk(ctx, pool, reqs[i], addrs, i)
				}
				results <- r
			}(launched)
			launched++
			inflight++
		}
		r := <-results
		inflight--
		pending[r.i] = r
		key := r.i
		if ordered {
			key = next
		}
		for p, ok := pending[key]; ok && !stopped; p, ok = pending[key] {
			delete(pending, key)
			stopped = !deliver(p.i, p.data, p.stats, p.err)
			next++
			if !ordered {
				break
			}
			key = next
		}
	}
	cancel()
	for ; inflight > 0; inflight-- {
		<-results
	}
}

// fetchChunk downloads and decodes one generation from addrs under the
// client's scheduling policy. rotate (the chunk index) spreads
// concurrent hedged chunks across equally healthy peers. This is the
// only place a decode sink is built and the only place its final state
// becomes a result and a metric.
func (c *Client) fetchChunk(ctx context.Context, pool *sessionPool, req FetchRequest,
	addrs []string, rotate int) ([]byte, FetchStats, error) {
	stats := FetchStats{BytesFrom: make(map[string]uint64, len(addrs))}
	if len(addrs) == 0 {
		c.m.recordFetch(stats, 0, ErrNoPeers)
		return nil, stats, ErrNoPeers
	}
	sink, telemetry, err := req.newSink()
	if err != nil {
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	if closer, ok := sink.(interface{ Close() }); ok {
		defer closer.Close()
	}
	stopSampling := c.m.sampleDecode(telemetry)

	start := time.Now()
	run := newChunkRun(ctx, c, pool, req.FileID, sink, len(addrs), &stats)
	var delay time.Duration
	if c.opt.Hedge {
		delay = c.health.hedgeDelay()
		run.hedged(addrs, rotate, delay)
	} else {
		run.all(addrs)
	}
	stats.Elapsed = time.Since(start)
	stopSampling()
	completed := sink.Done()
	c.recordLaunches(run.launches, completed, delay)

	st := sink.Stats()
	stats.Messages = st.Received
	stats.Innovative = st.Accepted
	stats.Rejected = st.Rejected
	var data []byte
	switch {
	case completed:
		data, err = sink.Decode()
	case ctx.Err() != nil:
		err = ctx.Err()
	default:
		err = fmt.Errorf("%w: rank %d of %d (%s)",
			ErrIncomplete, sink.Rank(), req.Params.K, run.joinErrs())
	}
	if err != nil {
		c.m.recordFetch(stats, 0, err)
		return nil, stats, err
	}
	c.m.recordFetch(stats, len(data), nil)
	if telemetry != nil {
		c.m.recordDecodeTelemetry(telemetry())
	}
	return data, stats, nil
}

// launch is one peer stream of a chunk. live and err are written by
// the stream goroutine and read after wg.Wait.
type launch struct {
	addr    string
	started time.Time
	probe   bool // a half-open breaker probe
	bytes   atomic.Int64
	live    bool // an attempt was in flight when the stream returned
	err     error
}

// chunkRun is the state one chunk's streams share: the sink, receipt
// accounting, and the record of every stream launched.
type chunkRun struct {
	c        *Client
	pool     *sessionPool
	ctx      context.Context // cancelled once the chunk completes
	cancel   context.CancelFunc
	fileID   uint64
	sink     decodeSink
	progress atomic.Int64 // bytes received over all streams
	wg       sync.WaitGroup
	launches []*launch
	ended    chan *launch // each launch, as its stream returns

	mu    sync.Mutex // guards stats.BytesFrom
	stats *FetchStats
}

func newChunkRun(ctx context.Context, c *Client, pool *sessionPool, fileID uint64,
	sink decodeSink, peers int, stats *FetchStats) *chunkRun {
	r := &chunkRun{c: c, pool: pool, fileID: fileID, sink: sink, stats: stats,
		ended: make(chan *launch, peers)}
	r.ctx, r.cancel = context.WithCancel(ctx)
	return r
}

// start launches one stream of the chunk from addr. Both policies
// launch at most one stream per entry of the chunk's peer set, and
// ended has a slot for each, so its send never blocks.
func (r *chunkRun) start(addr string, retry, probe bool) {
	l := &launch{addr: addr, started: time.Now(), probe: probe}
	r.launches = append(r.launches, l)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		l.err = r.stream(l, retry)
		if r.sink.Done() {
			r.cancel() // wake sibling streams so they STOP promptly
		}
		r.ended <- l
	}()
}

// all is the default policy: stream the chunk from every peer at once,
// each stream retrying on its own, until the sink completes or every
// stream has ended.
func (r *chunkRun) all(addrs []string) {
	for _, addr := range addrs {
		r.start(addr, true, false)
	}
	r.wg.Wait()
	r.cancel()
}

// joinErrs summarizes the streams' failures for an incomplete decode.
func (r *chunkRun) joinErrs() string {
	var parts []string
	for _, l := range r.launches {
		if l.err != nil {
			parts = append(parts, l.err.Error())
		}
	}
	if len(parts) == 0 {
		return "no peer errors"
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// stream streams the chunk from l's peer into the sink over the call's
// session to that peer, returning when the sink completes, the peer is
// exhausted (orderly STOP), the chunk's context ends, or the stream
// fails. With retry set it recovers the way classifyEnd says: a
// transport failure redials the session (if it died) after a doubling
// backoff, up to PeerRetries times; a BUSY shed re-requests after the
// peer's RETRY_AFTER hint, without spending a retry. Every failed
// attempt is recorded in the peer's health as it happens; the final
// outcome is returned for recordLaunches.
func (r *chunkRun) stream(l *launch, retry bool) error {
	c := r.c
	backoff := c.opt.RetryBackoff
	for attempt := 0; ; {
		s, err := r.pool.get(l.addr).wait(r.ctx)
		if err == nil {
			l.live = true
			err = s.FetchStream(r.ctx, StreamRequest{FileID: r.fileID, Priority: c.opt.Priority}, r.sink,
				func(n int) {
					l.bytes.Add(int64(n))
					r.progress.Add(int64(n))
					r.mu.Lock()
					r.stats.BytesFrom[s.fingerprint] += uint64(n)
					r.mu.Unlock()
				})
		}
		if r.ctx.Err() != nil {
			return nil // cancelled: decode completed elsewhere, or deadline
		}
		if err == nil || !retry {
			return err
		}
		end, retryAfter := classifyEnd(err)
		var wait time.Duration
		switch end {
		case endShed:
			wait = max(c.opt.RetryBackoff, retryAfter)
		case endRetry:
			if attempt >= c.opt.PeerRetries {
				return err
			}
			attempt++
			wait, backoff = backoff, 2*backoff
		default:
			return err
		}
		c.recordEnd(l.addr, err)
		l.live = false
		select {
		case <-r.ctx.Done():
			return nil
		case <-time.After(wait):
		}
	}
}

// streamEnd classifies how one stream attempt ended.
type streamEnd int

const (
	endOrderly  streamEnd = iota // STOP, sink complete, or cancelled
	endRetry                     // transport failure: redial after backoff
	endShed                      // BUSY: re-request after RETRY_AFTER
	endTerminal                  // the peer answered; asking again will not change it
)

// classifyEnd maps a stream attempt's error to its recovery, plus the
// peer's RETRY_AFTER hint for a shed. A BUSY whose code is EXPIRED is
// terminal — the request's own deadline passed — as is any other
// answer from the peer (*wire.RemoteError). Everything else — an abort
// without STOP, a refused dial, a failed handshake — is transport.
func classifyEnd(err error) (streamEnd, time.Duration) {
	var (
		busy   *wire.Busy
		remote *wire.RemoteError
	)
	switch {
	case err == nil:
		return endOrderly, 0
	case errors.As(err, &busy):
		if busy.Code == wire.CodeExpired {
			return endTerminal, 0
		}
		return endShed, time.Duration(busy.RetryAfterMillis) * time.Millisecond
	case errors.As(err, &remote):
		return endTerminal, 0
	default:
		return endRetry, 0
	}
}

// recordEnd folds one failed stream attempt into addr's health: a BUSY
// shed is an honest answer, not sickness; anything else is a failure,
// except a failed dial, which the session pool has recorded already.
func (c *Client) recordEnd(addr string, err error) {
	var (
		busy *wire.Busy
		dial *dialError
	)
	if errors.As(err, &dial) {
		return
	}
	if errors.As(err, &busy) {
		c.health.recordShed(addr)
		c.m.shedsObserved.Inc()
		return
	}
	c.health.recordFailure(addr)
}

// recordLaunches folds a finished chunk's final stream outcomes into
// the health registry. Called after every stream returned, so the
// launch fields are settled. delay > 0 (the hedged policy) also judges
// stalls: a stream that held its slot for a whole hedge delay yet
// contributed nothing while another peer finished the chunk.
func (c *Client) recordLaunches(launches []*launch, completed bool, delay time.Duration) {
	for _, l := range launches {
		elapsed := time.Since(l.started)
		switch {
		case l.err != nil:
			c.recordEnd(l.addr, l.err)
		case !l.live:
			// Cancelled before its session was up or while waiting to
			// retry (its failed attempts are recorded already): it
			// proved nothing, but a probe must hand its slot back.
			if l.probe {
				c.health.abandonProbe(l.addr)
			}
		case delay > 0 && completed && l.bytes.Load() == 0 && elapsed > delay:
			c.health.recordFailure(l.addr)
			c.m.hedgeStalls.Inc()
		case completed && l.bytes.Load() > 0:
			c.health.recordSuccess(l.addr, elapsed)
		default:
			// Exhausted its stored messages or arrived too late to
			// matter: liveness proven, no latency sample.
			c.health.recordSuccess(l.addr, 0)
		}
	}
}

// deadlineMillis converts a context deadline into the wire's relative
// deadline-remaining field: milliseconds left, clamped to uint32, 0
// when the context has no deadline. An already-expired deadline maps
// to 1 ms so the peer still sees (and immediately drops) the request
// as expired work instead of treating it as unbounded.
func deadlineMillis(ctx context.Context) uint32 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		return 1
	}
	if ms > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ms)
}
