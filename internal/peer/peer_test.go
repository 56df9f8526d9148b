package peer_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
	"asymshare/internal/wire"
)

func identity(t *testing.T, b byte) *auth.Identity {
	t.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func testSecret() []byte {
	s := make([]byte, rlnc.SecretLen)
	for i := range s {
		s[i] = byte(i + 1)
	}
	return s
}

// startPeer boots a node on a loopback port and registers cleanup.
func startPeer(t *testing.T, cfg peer.Config) *peer.Node {
	t.Helper()
	n, err := peer.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return n
}

func smallParams(t *testing.T, k, m, dataLen int) rlnc.Params {
	t.Helper()
	p, err := rlnc.NewParams(gf.MustNew(gf.Bits8), k, m, dataLen)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := peer.New(peer.Config{Store: store.NewMemory()}); err == nil {
		t.Error("missing identity accepted")
	}
	if _, err := peer.New(peer.Config{Identity: identity(t, 1)}); err == nil {
		t.Error("missing store accepted")
	}
}

func TestDisseminateAndFetchSinglePeer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := smallParams(t, 8, 64, 500)
	data := make([]byte, 500)
	rng.Read(data)
	enc, err := rlnc.NewEncoder(params, 42, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := enc.BatchForPeer(0, params.K)
	if err != nil {
		t.Fatal(err)
	}

	peerID := identity(t, 2)
	userID := identity(t, 3)
	node := startPeer(t, peer.Config{
		Identity: peerID,
		Store:    store.NewMemory(),
		Trusted:  auth.NewTrustSet(userID.Public()),
	})

	c, err := client.New(userID, auth.NewTrustSet(peerID.Public()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Disseminate(ctx, node.Addr().String(), batch); err != nil {
		t.Fatal(err)
	}
	if got := node.StoredBytes(); got == 0 {
		t.Error("StoredBytes = 0 after dissemination")
	}

	got, stats, err := c.Fetch(ctx, client.FetchRequest{
		Peers: []string{node.Addr().String()}, Params: params, FileID: 42, Secret: testSecret()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched data mismatch")
	}
	if stats.Innovative != params.K {
		t.Errorf("innovative = %d, want %d", stats.Innovative, params.K)
	}
	served := node.ServedBytes()
	if len(served) != 1 {
		t.Errorf("ServedBytes = %v", served)
	}
}

func TestParallelFetchBeatsSinglePeerUpload(t *testing.T) {
	// The headline result: three peers each shaped to uploadRate serve
	// one user in parallel; the user's goodput lands well above a
	// single peer's upload capacity.
	if testing.Short() {
		t.Skip("multi-second shaped transfer")
	}
	rng := rand.New(rand.NewSource(2))
	const dataLen = 768 << 10 // 768 KiB
	params, err := rlnc.ParamsForSize(gf.MustNew(gf.Bits8), dataLen, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, dataLen)
	rng.Read(data)
	enc, err := rlnc.NewEncoder(params, 7, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}

	const uploadRate = 64 << 10 // 64 KiB/s per peer
	userID := identity(t, 9)
	var addrs []string
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c, err := client.New(userID, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		node := startPeer(t, peer.Config{
			Identity:          identity(t, byte(10+i)),
			Store:             store.NewMemory(),
			UploadBytesPerSec: uploadRate,
			ReallocInterval:   100 * time.Millisecond,
		})
		batch, err := enc.BatchForPeer(i, params.K)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Disseminate(ctx, node.Addr().String(), batch); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, node.Addr().String())
	}

	got, stats, err := c.Fetch(ctx, client.FetchRequest{
		Peers: addrs, Params: params, FileID: 7, Secret: testSecret()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched data mismatch")
	}
	rate := stats.EffectiveRate(len(got))
	// With 3 peers the aggregate should clearly exceed one peer's
	// upload capacity (allow generous slack for handshakes and bursts).
	if rate < 1.5*uploadRate {
		t.Errorf("aggregate rate %.0f B/s does not beat single upload %d B/s", rate, uploadRate)
	}
	if len(stats.BytesFrom) < 2 {
		t.Errorf("download used %d peers, want >= 2", len(stats.BytesFrom))
	}
}

func TestFetchUnknownFile(t *testing.T) {
	node := startPeer(t, peer.Config{Identity: identity(t, 20), Store: store.NewMemory()})
	c, err := client.New(identity(t, 21), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	params := smallParams(t, 4, 16, 64)
	_, _, err = c.Fetch(ctx, client.FetchRequest{
		Peers: []string{node.Addr().String()}, Params: params, FileID: 99, Secret: testSecret()})
	if !errors.Is(err, client.ErrIncomplete) {
		t.Errorf("unknown file fetch error = %v, want ErrIncomplete", err)
	}
}

func TestFetchNoPeers(t *testing.T) {
	c, err := client.New(identity(t, 22), nil)
	if err != nil {
		t.Fatal(err)
	}
	params := smallParams(t, 4, 16, 64)
	_, _, err = c.Fetch(context.Background(), client.FetchRequest{
		Params: params, FileID: 1, Secret: testSecret()})
	if !errors.Is(err, client.ErrNoPeers) {
		t.Errorf("error = %v, want ErrNoPeers", err)
	}
}

func TestUntrustedUserRejected(t *testing.T) {
	allowed := identity(t, 30)
	node := startPeer(t, peer.Config{
		Identity: identity(t, 31),
		Store:    store.NewMemory(),
		Trusted:  auth.NewTrustSet(allowed.Public()),
	})
	intruder, err := client.New(identity(t, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = intruder.Disseminate(ctx, node.Addr().String(), []*rlnc.Message{
		{FileID: 1, MessageID: 1, Payload: []byte{1, 2}},
	})
	if err == nil {
		t.Error("untrusted client disseminated successfully")
	}
}

func TestForgedMessagesRejectedDuringFetch(t *testing.T) {
	// One peer serves corrupted payloads; with digests pinned, the
	// decoder rejects them and the fetch completes from the honest peer.
	rng := rand.New(rand.NewSource(3))
	params := smallParams(t, 6, 64, 300)
	data := make([]byte, 300)
	rng.Read(data)
	enc, err := rlnc.NewEncoder(params, 55, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := enc.BatchForPeer(0, params.K)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]rlnc.Digest)
	for _, m := range honest {
		digests[m.MessageID] = m.Digest()
	}
	forged, err := enc.BatchForPeer(1, params.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range forged {
		digests[m.MessageID] = m.Digest()
		m.Payload[0] ^= 0xFF // corrupt after digest registration
	}

	userID := identity(t, 40)
	c, err := client.New(userID, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	honestNode := startPeer(t, peer.Config{Identity: identity(t, 41), Store: store.NewMemory()})
	evilNode := startPeer(t, peer.Config{Identity: identity(t, 42), Store: store.NewMemory()})
	if err := c.Disseminate(ctx, honestNode.Addr().String(), honest); err != nil {
		t.Fatal(err)
	}
	if err := c.Disseminate(ctx, evilNode.Addr().String(), forged); err != nil {
		t.Fatal(err)
	}

	// Against the forging peer alone, every message fails its digest:
	// the decode cannot complete and every arrival is rejected.
	_, stats, err := c.Fetch(ctx, client.FetchRequest{
		Peers: []string{evilNode.Addr().String()}, Params: params, FileID: 55,
		Secret: testSecret(), Digests: digests})
	if !errors.Is(err, client.ErrIncomplete) {
		t.Fatalf("evil-only fetch error = %v, want ErrIncomplete", err)
	}
	if stats.Rejected == 0 || stats.Innovative != 0 {
		t.Errorf("evil-only stats: %+v, want all rejected", stats)
	}

	// With the honest peer in the mix the download completes; the
	// forgeries never poison the decoder.
	got, stats, err := c.Fetch(ctx, client.FetchRequest{
		Peers: []string{evilNode.Addr().String(), honestNode.Addr().String()}, Params: params,
		FileID: 55, Secret: testSecret(), Digests: digests})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched data mismatch")
	}
	if stats.Innovative != params.K {
		t.Errorf("innovative = %d, want %d", stats.Innovative, params.K)
	}
}

func TestFeedbackCreditsLedgerOnlyFromOwner(t *testing.T) {
	owner := identity(t, 50)
	stranger := identity(t, 51)
	node := startPeer(t, peer.Config{
		Identity: identity(t, 52),
		Store:    store.NewMemory(),
		Owner:    owner.Public(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	ownerClient, err := client.New(owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ownerClient.SendFeedback(ctx, node.Addr().String(), map[string]uint64{"peerX": 5000}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return node.Ledger().Received("peerX") >= 5000 },
		"owner feedback not credited")

	strangerClient, err := client.New(stranger, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := strangerClient.SendFeedback(ctx, node.Addr().String(), map[string]uint64{"peerY": 7000}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := node.Ledger().Received("peerY"); got >= 7000 {
		t.Errorf("stranger feedback credited: %v", got)
	}
}

func TestFetchFileMultiChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 128, ChunkSize: 1024}
	data := make([]byte, 2500)
	rng.Read(data)
	share, err := chunk.BuildShare("video", data, plan, 600, testSecret())
	if err != nil {
		t.Fatal(err)
	}

	userID := identity(t, 60)
	c, err := client.New(userID, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var addrs []string
	for i := 0; i < 2; i++ {
		node := startPeer(t, peer.Config{Identity: identity(t, byte(61+i)), Store: store.NewMemory()})
		batches, err := share.BatchForPeer(i, 1024)
		if err != nil {
			t.Fatal(err)
		}
		var flat []*rlnc.Message
		for _, b := range batches {
			flat = append(flat, b...)
		}
		if err := c.Disseminate(ctx, node.Addr().String(), flat); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, node.Addr().String())
	}
	got, stats, err := c.FetchFile(ctx, addrs, &share.Manifest, share.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-chunk fetch mismatch")
	}
	if stats.Rejected != 0 {
		t.Errorf("rejected = %d", stats.Rejected)
	}
}

func TestNodeCloseIdempotentAndStartAfterClose(t *testing.T) {
	n, err := peer.New(peer.Config{Identity: identity(t, 70), Store: store.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); !errors.Is(err, peer.ErrClosed) {
		// Listening succeeded but the node is closed; the listener must
		// have been released.
		t.Errorf("Start after Close error = %v, want ErrClosed", err)
	}
}

func TestStopHaltsStreaming(t *testing.T) {
	// A slow peer with many messages: the client reaches rank k after k
	// messages and sends STOP; the peer must not continue to exhaust
	// the remaining messages.
	rng := rand.New(rand.NewSource(5))
	params := smallParams(t, 4, 256, 1000)
	data := make([]byte, 1000)
	rng.Read(data)
	enc, err := rlnc.NewEncoder(params, 77, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemory()
	// Store far more than k messages.
	for id := uint64(0); id < 64; id++ {
		if err := st.Put(enc.Message(id)); err != nil {
			t.Fatal(err)
		}
	}
	node := startPeer(t, peer.Config{Identity: identity(t, 80), Store: st})
	c, err := client.New(identity(t, 81), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, stats, err := c.Fetch(ctx, client.FetchRequest{
		Peers: []string{node.Addr().String()}, Params: params, FileID: 77, Secret: testSecret()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch mismatch")
	}
	// The client should have received close to k messages, not all 64.
	if stats.Messages > 2*params.K {
		t.Errorf("received %d messages despite STOP; k=%d", stats.Messages, params.K)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestGetLimit(t *testing.T) {
	// Smoke-test the Limit field through the wire package directly.
	g := wire.Get{FileID: 5, Limit: 2}
	var got wire.Get
	if err := got.Unmarshal(g.Marshal()); err != nil || got.Limit != 2 {
		t.Fatalf("limit round trip: %+v, %v", got, err)
	}
}
