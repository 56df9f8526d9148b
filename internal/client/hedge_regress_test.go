package client

// Regression for the hedged scheduler's all-quarantined corner: when
// every session is inside a lapsed breaker cooldown, order() returns
// probeFrom == 0 and the first probe candidate doubles as the primary
// stream. The probe start-up loop must then skip that rung — launching
// it a second time opened a duplicate stream for the same file-id on
// the same session, whose register failure was classified as a real
// failure and re-opened the breaker (with a doubled cooldown) right
// after the chunk had in fact been served successfully. A peer still
// inside its cooldown is tried last: on its own, and once a healthy
// peer beside it has failed.

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

func TestHedgedAllQuarantinedLaunchesPrimaryOnce(t *testing.T) {
	peerID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{41}, 32))
	if err != nil {
		t.Fatal(err)
	}
	clientID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	n, err := peer.New(peer.Config{Identity: peerID, Store: store.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	addr := n.Addr().String()

	secret := make([]byte, rlnc.SecretLen)
	for i := range secret {
		secret[i] = byte(i + 3)
	}
	data := bytes.Repeat([]byte("all quarantined "), 60)[:900] // one chunk
	share, err := chunk.BuildShare("q.bin", data,
		chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}, 1000, secret)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewWith(clientID, nil, Options{
		Hedge:            true,
		BreakerThreshold: 1,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	batches, err := share.BatchForPeer(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var flat []*rlnc.Message
	for _, b := range batches {
		flat = append(flat, b...)
	}
	if err := c.Disseminate(ctx, addr, flat); err != nil {
		t.Fatal(err)
	}

	// Quarantine the peer with an already-lapsed cooldown so the ladder
	// consists solely of probe candidates.
	c.health.mu.Lock()
	p := c.health.peerLocked(addr)
	p.state = breakerOpen
	p.cooldown = 50 * time.Millisecond
	p.openUntil = time.Now().Add(-time.Millisecond)
	c.health.mu.Unlock()

	if ladder, probeFrom := c.health.order([]string{addr}, 0); len(ladder) != 1 || probeFrom != 0 {
		t.Fatalf("sanity: ladder len %d probeFrom %d, want 1 and 0", len(ladder), probeFrom)
	}

	info := share.Manifest.Chunks[0]
	params, err := info.Params(share.Manifest.Plan)
	if err != nil {
		t.Fatal(err)
	}
	piece, _, err := c.Fetch(ctx, FetchRequest{Peers: []string{addr}, Params: params,
		FileID: info.FileID, Secret: secret, Digests: info.Digests})
	if err != nil {
		t.Fatalf("all-quarantined hedged fetch: %v", err)
	}
	got, err := chunk.Assemble(&share.Manifest, [][]byte{piece})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded bytes differ from original")
	}

	// The single (primary) stream succeeded, so the breaker must be
	// closed and no spurious failure recorded. The double launch used to
	// fail register for the duplicate stream, count a failure, and
	// re-open the breaker with a doubled cooldown.
	if s := c.PeerHealth(addr); s.Breaker != "closed" || s.Failures != 0 {
		t.Fatalf("health after fetch = %+v, want closed breaker with 0 failures", s)
	}
	// And the probe loop must not have claimed the rung it already
	// launched as the primary: a claimed probe slot here is exactly the
	// duplicate launch (whichever of the two streams lost the register
	// race, the loser's failure was either recorded or silently
	// orphaned — both wrong).
	if v := reg.Counter(MetricBreakerProbes, "").Value(); v != 0 {
		t.Fatalf("breaker_probes_total = %d, want 0 (primary rung probed twice)", v)
	}

	// Still inside its cooldown, the only peer is no probe candidate
	// either. The hedged policy must still try it rather than fail the
	// chunk outright: with no healthy alternative, every known peer is
	// worth a stream.
	c.health.mu.Lock()
	p.state = breakerOpen
	p.openUntil = time.Now().Add(time.Hour)
	c.health.mu.Unlock()
	if ladder, _ := c.health.order([]string{addr}, 0); len(ladder) != 0 {
		t.Fatalf("sanity: cooling-down peer on the ladder: %v", ladder)
	}
	if _, _, err := c.Fetch(ctx, FetchRequest{Peers: []string{addr}, Params: params,
		FileID: info.FileID, Secret: secret, Digests: info.Digests}); err != nil {
		t.Fatalf("hedged fetch with every peer cooling down: %v", err)
	}

	// Beside a healthy peer that cannot serve the chunk, the
	// cooling-down peer is the last resort once the healthy rung has
	// failed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	c.health.mu.Lock()
	p.state = breakerOpen
	p.openUntil = time.Now().Add(time.Hour)
	c.health.mu.Unlock()
	piece, _, err = c.Fetch(ctx, FetchRequest{Peers: []string{dead, addr}, Params: params,
		FileID: info.FileID, Secret: secret, Digests: info.Digests})
	if err != nil {
		t.Fatalf("hedged fetch with only a dead healthy peer: %v", err)
	}
	if got, err := chunk.Assemble(&share.Manifest, [][]byte{piece}); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("last-resort fetch decoded different bytes (%v)", err)
	}
}
