package main

// The in-process network a workload runs against: storage peers on
// loopback TCP and the users that share to and fetch from them.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/fairshare"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/store"
	"asymshare/internal/transport"
)

const mib = 1 << 20

// instruments is what a traced run attaches to the cluster; the zero
// value (untraced) attaches nothing.
type instruments struct {
	tr *Tracer
	st *layerStats
}

func (in instruments) on() bool { return in.st != nil }

// cluster is a set of running peers.
type cluster struct {
	nodes  []*peer.Node
	stores []*store.Memory
	regs   []*metrics.Registry // one per peer; nil entries when untraced
	addrs  []string
}

// identity derives a deterministic key from the run seed, a role and
// an index, so the same seed names the same peers and users.
func identity(seed int64, role string, i int) (*auth.Identity, error) {
	var b [32]byte
	copy(b[:], role)
	binary.LittleEndian.PutUint64(b[16:], uint64(seed))
	binary.LittleEndian.PutUint64(b[24:], uint64(i))
	return auth.IdentityFromSeed(b[:])
}

// startCluster boots n peers, each shaped to capBps (0 = unshaped).
// credits, when set, pre-credits every peer's Eq. (2) ledger with the
// given standing per requester; hi names the high-standing requester
// whose grant share the traced allocator records.
func startCluster(seed int64, n int, capBps float64, credits map[fairshare.ID]float64, hi fairshare.ID, in instruments) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < n; i++ {
		id, err := identity(seed, "peer", i)
		if err != nil {
			c.close()
			return nil, err
		}
		mem := store.NewMemory()
		ledger := fairshare.NewLedger(fairshare.DefaultInitialCredit)
		for who, amount := range credits {
			ledger.Credit(who, amount)
		}
		cfg := peer.Config{
			Identity:          id,
			Store:             mem,
			Ledger:            ledger,
			UploadBytesPerSec: capBps,
		}
		var reg *metrics.Registry
		if in.on() {
			reg = metrics.NewRegistry()
			cfg.Metrics = reg
			cfg.Store = tracedStore{Store: mem, tr: in.tr, st: in.st}
			cfg.Allocator = tracedAllocator{inner: fairshare.PairwiseProportional{}, tr: in.tr, st: in.st, hi: hi}
			cfg.Transport = peerTransport{inner: transport.Default, st: in.st}
		}
		node, err := peer.New(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			c.close()
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
		c.stores = append(c.stores, mem)
		c.regs = append(c.regs, reg)
		c.addrs = append(c.addrs, node.Addr().String())
	}
	return c, nil
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		_ = n.Close() // shutdown of an in-memory peer; nothing to report
	}
}

// servedBytes returns the bytes each peer has served so far, summed
// over its requesters.
func (c *cluster) servedBytes() []int64 {
	out := make([]int64, len(c.nodes))
	for i, n := range c.nodes {
		for _, b := range n.ServedBytes() {
			out[i] += b
		}
	}
	return out
}

// user is one person's System, with its own client registry when
// traced.
type user struct {
	id  *auth.Identity
	sys *core.System
	reg *metrics.Registry
}

func newUser(seed int64, i int, plan chunk.Plan, in instruments) (*user, error) {
	id, err := identity(seed, "user", i)
	if err != nil {
		return nil, err
	}
	var opts client.Options
	if in.on() {
		opts.Transport = clientTransport{inner: transport.Default, tr: in.tr, st: in.st}
	}
	sys, err := core.NewSystem(id, nil, core.WithPlan(plan), core.WithClientOptions(opts))
	if err != nil {
		return nil, err
	}
	u := &user{id: id, sys: sys}
	if in.on() {
		u.reg = metrics.NewRegistry()
		sys.Client().Instrument(u.reg)
	}
	return u, nil
}

func (u *user) fingerprint() fairshare.ID { return u.id.Fingerprint() }

// sharedFile is a file on the peers together with the plaintext every
// fetch of it is compared against.
type sharedFile struct {
	data   []byte
	handle core.Handle
	secret []byte
}

// randomFile returns size seeded pseudo-random bytes.
func randomFile(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	rng.Read(b) // math/rand Read never fails
	return b
}

// share uploads data through u's System under a "share" span.
func (u *user) share(ctx context.Context, in instruments, op, name string, data []byte, addrs []string) (*sharedFile, error) {
	ctx, sp := in.tr.begin(ctx, "core.share", op)
	res, err := u.sys.ShareFile(ctx, name, data, addrs)
	sp.end(nil)
	if err != nil {
		return nil, err
	}
	return &sharedFile{data: data, handle: res.Handle, secret: res.Secret}, nil
}

// fetch downloads f through u's System under a "fetch" span. A result
// that differs from the plaintext is reported as errCorrupt.
func (u *user) fetch(ctx context.Context, in instruments, op string, f *sharedFile) error {
	ctx, sp := in.tr.begin(ctx, "core.fetch", op)
	data, _, err := u.sys.FetchFile(ctx, &f.handle, f.secret)
	sp.end(nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, f.data) {
		return errCorrupt
	}
	return nil
}

// checkStored verifies that every peer holds k messages of every chunk
// of f, which is what ShareFile promises.
func (c *cluster) checkStored(f *sharedFile) error {
	for i, mem := range c.stores {
		for _, ch := range f.handle.Manifest.Chunks {
			if got := mem.Count(ch.FileID); got != ch.K {
				return fmt.Errorf("%w: peer %d holds %d of %d messages of chunk %d", errCorrupt, i, got, ch.K, ch.FileID)
			}
		}
	}
	return nil
}

// drop deletes f's chunks from every peer so memory stays flat across
// repeated shares.
func (c *cluster) drop(f *sharedFile) {
	for _, mem := range c.stores {
		for _, ch := range f.handle.Manifest.Chunks {
			_ = mem.Drop(ch.FileID) // Memory.Drop cannot fail
		}
	}
}
