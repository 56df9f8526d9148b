// Package client implements the user side of Fig. 4: disseminating
// encoded message batches to storage peers (initialization, Sec. III-A)
// and later downloading from many peers in parallel to fill the remote
// download pipe beyond any single peer's upload capacity (Sec. III-B).
// Every download — one generation, a whole manifest, or an in-order
// chunk stream — runs on one engine (fetch.go): a chunk scheduler over
// multiplexed PeerSessions that feeds each chunk's arriving messages
// into one shared rlnc.Sink, sends STOP to its peers as soon as rank k
// is reached, and reports per-peer receipts for the user's periodic
// feedback to its own peer.
package client

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/rlnc"
	"asymshare/internal/transport"
	"asymshare/internal/wire"
)

var (
	// ErrNoPeers is returned when a fetch is attempted with no peers.
	ErrNoPeers = errors.New("client: no peers to contact")

	// ErrIncomplete is returned when every peer is exhausted before the
	// generation could be decoded.
	ErrIncomplete = errors.New("client: peers exhausted before decode completed")

	// errPeerAborted marks a connection that died mid-stream without an
	// orderly STOP — a crashed or partitioned peer, not an exhausted
	// one. It is retriable, unlike a protocol error.
	errPeerAborted = errors.New("client: peer connection aborted mid-stream")
)

// Defaults for Options fields left zero.
const (
	DefaultDialTimeout  = 10 * time.Second
	DefaultPeerRetries  = 2
	DefaultRetryBackoff = 200 * time.Millisecond
)

// Options tunes a client's networking behaviour. The zero value gives
// sane production defaults over real TCP.
type Options struct {
	// Transport dials peers; nil means real TCP (transport.Default).
	// Tests inject an in-memory netsim fabric here.
	Transport transport.Transport

	// DialTimeout bounds each dial plus handshake. Zero means
	// DefaultDialTimeout; negative disables the bound (the caller's
	// context still applies).
	DialTimeout time.Duration

	// PeerRetries is how many times a fetch stream that aborts
	// mid-transfer (abrupt close, reset, failed dial — anything but an
	// orderly STOP or a peer's answer) is retried, redialing the
	// peer's session if it died. Zero means DefaultPeerRetries;
	// negative disables retries. A hedged half-open probe makes one
	// attempt: its outcome is the breaker's verdict.
	PeerRetries int

	// RetryBackoff is the delay before the first retry, doubling per
	// attempt. Zero means DefaultRetryBackoff.
	RetryBackoff time.Duration

	// Hedge selects the hedged scheduling policy for every fetch: each
	// chunk starts on the single healthiest peer of its set and a
	// stream that stalls for a hedge delay is re-issued on the
	// next-healthiest one, with per-peer circuit breakers quarantining
	// peers that repeatedly fail. Off by default — the default policy
	// streams every chunk from all of its peers at once, which
	// maximizes instantaneous goodput at the price of redundant upload
	// bandwidth and no isolation from a stalled peer.
	Hedge bool

	// HedgeDelay pins the no-progress interval before a hedge stream
	// is launched. Zero selects the adaptive estimate: p95 of recent
	// stream latencies with headroom (DefaultHedgeDelay until enough
	// samples exist).
	HedgeDelay time.Duration

	// BreakerThreshold is how many consecutive failures quarantine a
	// peer's circuit breaker. Zero means DefaultBreakerThreshold.
	BreakerThreshold int

	// BreakerCooldown is the initial quarantine after a breaker opens,
	// doubling on each failed half-open probe up to a cap. Zero means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration

	// Priority is the wire priority carried on every GET_MUX the
	// client's fetches issue: higher values win admission ties at an
	// overloaded peer. Zero is normal — and the only value
	// pre-extension peers understand; a nonzero priority selects the
	// extended GET encoding, which requires upgraded peers (see
	// wire.Get).
	Priority uint8
}

// withDefaults resolves zero fields to their documented defaults.
func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = transport.Default
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.PeerRetries == 0 {
		o.PeerRetries = DefaultPeerRetries
	} else if o.PeerRetries < 0 {
		o.PeerRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	return o
}

// Client is a user agent identified by a signing key.
type Client struct {
	id      *auth.Identity
	trusted *auth.TrustSet // acceptable peer keys; nil trusts any
	opt     Options
	m       clientMetrics   // zero value records nothing; see Instrument
	health  *healthRegistry // per-peer scores + circuit breakers
}

// New returns a client with default Options. trusted, if non-nil, pins
// the set of peer keys the client will talk to (the
// mutual-authentication direction).
func New(id *auth.Identity, trusted *auth.TrustSet) (*Client, error) {
	return NewWith(id, trusted, Options{})
}

// NewWith returns a client with explicit networking options.
func NewWith(id *auth.Identity, trusted *auth.TrustSet, opts Options) (*Client, error) {
	if id == nil {
		return nil, errors.New("client: identity required")
	}
	c := &Client{id: id, trusted: trusted, opt: opts.withDefaults()}
	c.health = newHealthRegistry(&c.m, c.opt)
	return c, nil
}

// Fingerprint returns the client's key fingerprint.
func (c *Client) Fingerprint() string { return c.id.Fingerprint() }

// dial connects and completes the mutual handshake on the connection's
// one reader and writer. DialTimeout bounds the dial AND the handshake:
// a listener that accepts but never speaks (SYN-accepted, application
// dead) would otherwise hang the zero-value dialer forever.
func (c *Client) dial(ctx context.Context, addr string) (*wire.Conn, ed25519.PublicKey, error) {
	if c.opt.DialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opt.DialTimeout)
		defer cancel()
	}
	nc, err := c.opt.Transport.DialContext(ctx, addr)
	if err != nil {
		return nil, nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	conn := wire.NewConn(nc)
	peerKey, err := wire.InitiatorHandshake(ctx, conn, c.id, wire.RoleUser, c.trusted)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("client: handshake with %s: %w", addr, err)
	}
	return conn, peerKey, nil
}

// rpc runs one control exchange with the peer at addr on a fresh
// authenticated connection: request t, reply want, then BYE. ctx bounds
// every step (wire.Conn.Call), so a peer that authenticates and then
// goes silent costs the caller no more than ctx allows. decode, if
// non-nil, parses the reply payload. rpc returns the peer's key
// fingerprint, the identity its answer is accounted to.
func (c *Client) rpc(ctx context.Context, addr, verb string, t wire.Type, payload []byte, want wire.Type, decode func([]byte) error) (string, error) {
	conn, peerKey, err := c.dial(ctx, addr)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	fingerprint := auth.Fingerprint(peerKey)
	reply, err := conn.Call(ctx, t, payload, want)
	if err != nil {
		return fingerprint, fmt.Errorf("client: %s %s: %w", verb, addr, err)
	}
	if decode != nil {
		err = decode(reply.Bytes())
	}
	reply.Release()
	if err != nil {
		return fingerprint, fmt.Errorf("client: %s %s: %w", verb, addr, err)
	}
	_ = conn.Send(wire.TypeBye, nil)
	return fingerprint, nil
}

// Disseminate uploads a batch of encoded messages to one peer,
// confirming each PUT. This is the initialization-phase transfer that
// runs "when some upload bandwidth is available".
func (c *Client) Disseminate(ctx context.Context, addr string, msgs []*rlnc.Message) error {
	return c.putAll(ctx, addr, "put to", wire.TypePut, msgs)
}

// Patch sends delta messages to a peer, which applies each one to the
// matching stored message — the data-modification path of Sec. VI-A.
// Only the file's owner (the identity that first uploaded it) will be
// accepted.
func (c *Client) Patch(ctx context.Context, addr string, deltas []*rlnc.Message) error {
	return c.putAll(ctx, addr, "patch to", wire.TypePatch, deltas)
}

// putAll sends each message as one t frame on one connection, waiting
// for its PUT_OK, then says BYE. ctx bounds every exchange.
func (c *Client) putAll(ctx context.Context, addr, verb string, t wire.Type, msgs []*rlnc.Message) error {
	conn, _, err := c.dial(ctx, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	for _, msg := range msgs {
		buf, err := msg.MarshalBinary()
		if err != nil {
			return err
		}
		reply, err := conn.Call(ctx, t, buf, wire.TypePutOK)
		if err != nil {
			return fmt.Errorf("client: %s %s: %w", verb, addr, err)
		}
		reply.Release()
	}
	return conn.Send(wire.TypeBye, nil)
}

// ListFiles asks a peer which generations it stores (identifiers and
// message counts only — no payloads), letting an owner audit where its
// data is replicated.
func (c *Client) ListFiles(ctx context.Context, addr string) ([]wire.FileEntry, error) {
	var list wire.FileList
	if _, err := c.rpc(ctx, addr, "list", wire.TypeList, nil, wire.TypeFileList, list.Unmarshal); err != nil {
		return nil, err
	}
	return list.Files, nil
}

// SendFeedback delivers per-peer receipt reports to the user's own
// peer (Sec. III-B's periodic informational update).
func (c *Client) SendFeedback(ctx context.Context, ownPeerAddr string, received map[string]uint64) error {
	return c.sendFeedback(ctx, ownPeerAddr, "feedback to", received, func(n uint64) wire.FeedbackEntry {
		return wire.FeedbackEntry{Bytes: n}
	})
}

// sendFeedback sends one FEEDBACK frame with an entry per peer
// fingerprint, in fingerprint order, and waits for the acknowledgement
// so the report is durable before the connection closes.
func (c *Client) sendFeedback(ctx context.Context, ownPeerAddr, verb string, byPeer map[string]uint64, entry func(uint64) wire.FeedbackEntry) error {
	keys := make([]string, 0, len(byPeer))
	for k := range byPeer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fb := wire.Feedback{Entries: make([]wire.FeedbackEntry, 0, len(keys))}
	for _, k := range keys {
		e := entry(byPeer[k])
		e.PeerFingerprint = k
		fb.Entries = append(fb.Entries, e)
	}
	blob, err := fb.Marshal()
	if err != nil {
		return err
	}
	_, err = c.rpc(ctx, ownPeerAddr, verb, wire.TypeFeedback, blob, wire.TypePutOK, nil)
	return err
}

// FetchStats describes one parallel download.
type FetchStats struct {
	// BytesFrom maps peer fingerprint to message bytes received.
	BytesFrom map[string]uint64

	// Messages counts messages offered to the decoder.
	Messages int

	// Innovative counts messages that increased decoder rank.
	Innovative int

	// Rejected counts messages that failed digest authentication.
	Rejected int

	// Elapsed is the wall-clock download time.
	Elapsed time.Duration
}

// EffectiveRate returns the achieved goodput in bytes/second.
func (s FetchStats) EffectiveRate(decodedBytes int) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(decodedBytes) / s.Elapsed.Seconds()
}

// add folds another download's counts and per-peer receipts into s.
// Elapsed is left alone: the caller knows whether its parts ran
// serially or overlapped.
func (s *FetchStats) add(o FetchStats) {
	if s.BytesFrom == nil {
		s.BytesFrom = make(map[string]uint64, len(o.BytesFrom))
	}
	for k, v := range o.BytesFrom {
		s.BytesFrom[k] += v
	}
	s.Messages += o.Messages
	s.Innovative += o.Innovative
	s.Rejected += o.Rejected
}
