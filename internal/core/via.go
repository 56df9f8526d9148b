package core

// Discovery-seam integration: announce and fetch against any
// discovery.Discovery — tracker, DHT, or a failover chain — so the
// layers above never hard-code a location mechanism. The tracker- and
// DHT-specific entry points in discovery.go and dht.go are thin
// wrappers over these.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/discovery"
	"asymshare/internal/gossip"
)

// AnnounceHandleVia registers every (chunk file-id -> peer address)
// pair of a handle with a discovery mechanism, honoring per-chunk
// placement. A zero ttl requests the mechanism's maximum.
func (s *System) AnnounceHandleVia(ctx context.Context, d discovery.Discovery, h *Handle, ttl time.Duration) error {
	if h == nil || len(h.Peers) == 0 {
		return fmt.Errorf("%w: missing peers", ErrBadHandle)
	}
	for i, info := range h.Manifest.Chunks {
		for _, addr := range h.PeersForChunk(i) {
			if err := d.Announce(ctx, info.FileID, addr, ttl); err != nil {
				return fmt.Errorf("core: announce chunk %d: %w", info.FileID, err)
			}
		}
	}
	return nil
}

// FetchFileVia retrieves a file resolving each chunk's peers through a
// discovery mechanism — the user needs only the manifest, the secret,
// and a way to discover. Lookups run per chunk as the fetch engine
// schedules it, so one multiplexed session per peer serves every chunk
// that peer holds, and Options.Hedge applies as on any fetch.
func (s *System) FetchFileVia(ctx context.Context, d discovery.Discovery,
	m *chunk.Manifest, secret []byte) ([]byte, client.FetchStats, error) {
	return s.client.FetchManifest(ctx, m, secret, func(ctx context.Context, i int) ([]string, error) {
		addrs, err := d.Lookup(ctx, m.Chunks[i].FileID)
		if errors.Is(err, discovery.ErrNotFound) || (err == nil && len(addrs) == 0) {
			return nil, errors.Join(client.ErrNoPeers, err)
		}
		if err != nil {
			return nil, fmt.Errorf("core: resolve: %w", err)
		}
		return addrs, nil
	})
}

// ShareFileGossip encodes data and seeds it into a gossip engine
// instead of pushing batches peer-by-peer: the home uplink pays for one
// full-rank batch per generation plus Fanout exchanges per round, and
// rumor mongering carries the generations across the swarm. serveAddr
// is the home peer's own serving address (the engine's store is shared
// with it), recorded as the handle's initial peer; additional holders
// surface through discovery as their engines announce.
func (s *System) ShareFileGossip(ctx context.Context, name string, data []byte,
	eng *gossip.Engine, serveAddr string) (*ShareResult, error) {
	if eng == nil {
		return nil, fmt.Errorf("core: nil gossip engine")
	}
	secret, err := chunk.NewSecret()
	if err != nil {
		return nil, err
	}
	baseID, err := chunk.NewFileID()
	if err != nil {
		return nil, err
	}
	share, err := chunk.BuildShare(name, data, s.plan, baseID, secret)
	if err != nil {
		return nil, err
	}
	// One full-rank batch (peer index 0): any single complete copy of it
	// decodes, and every onward hop is innovation-aware gossip.
	batches, err := share.BatchForPeer(0, 1<<31-1)
	if err != nil {
		return nil, fmt.Errorf("core: mint seed batch: %w", err)
	}
	result := &ShareResult{Secret: secret}
	for i, batch := range batches {
		info := share.Manifest.Chunks[i]
		payloadLen := 0
		if len(batch) > 0 {
			payloadLen = len(batch[0].Payload)
		}
		if err := eng.Seed(info.FileID, info.K, payloadLen, batch); err != nil {
			return nil, fmt.Errorf("core: seed chunk %d: %w", info.FileID, err)
		}
		result.MessagesSent += len(batch)
		for _, m := range batch {
			result.BytesSent += int64(len(m.Payload) + 16)
		}
	}
	var peers []string
	if serveAddr != "" {
		peers = []string{serveAddr}
	}
	result.Handle = Handle{Manifest: share.Manifest, Peers: peers}
	return result, nil
}
