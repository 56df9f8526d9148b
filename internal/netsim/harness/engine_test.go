package harness

// Every fetch entry point runs on the one engine: discovery-resolved
// (FetchFileVia, behind `fetch -dht` and `-tracker`) and ring-placed
// manifests share one multiplexed session per peer across all their
// chunks, and honour Options.Hedge like FetchFile does.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/core"
	"asymshare/internal/discovery"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/netsim"
	"asymshare/internal/ring"
)

// hostSystem returns a System whose client dials from the given fabric
// host.
func hostSystem(t *testing.T, c *Cluster, host string, key byte, plan chunk.Plan, opts client.Options) *core.System {
	t.Helper()
	opts.Transport = c.Fabric.Host(host)
	sys, err := core.NewSystem(testIdentity(t, key), nil, core.WithPlan(plan), core.WithClientOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// hostTracker returns a tracker discovery that dials from host.
func hostTracker(t *testing.T, c *Cluster, host string) discovery.Discovery {
	t.Helper()
	d, err := discovery.NewTracker(c.TrackerAddr, c.Fabric.Host(host))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// peerDials counts the successful dials from host to each storage peer
// in the fabric's event log, by peer host name.
func peerDials(c *Cluster, host string) map[string]int {
	n := make(map[string]int)
	for _, line := range strings.Split(c.Fabric.Events().Dump(), "\n") {
		for _, p := range c.Peers {
			if strings.HasPrefix(line, host+"->"+p.Host+" |") && strings.HasSuffix(line, " ok") {
				n[p.Host]++
			}
		}
	}
	return n
}

// sharePlaced ring-places a file on the cluster's peers, two replicas
// per chunk.
func sharePlaced(t *testing.T, ctx context.Context, c *Cluster, plan chunk.Plan, data []byte) *core.ShareResult {
	t.Helper()
	addrs := make([]string, len(c.Peers))
	for i, p := range c.Peers {
		addrs[i] = p.Addr
	}
	r, err := ring.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hostSystem(t, c, HostUser, 160, plan, client.Options{}).
		ShareFilePlaced(ctx, "placed.bin", data, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestViaAndPlacedFetchDialEachPeerOnce(t *testing.T) {
	seed := Seed(t, 53)
	ctx := testCtx(t)
	c := Start(t, seed, 3)
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 1024, ChunkSize: 16 << 10}
	data, h, secret := shareOverloadFile(t, ctx, c, plan, 96<<10) // 6 chunks
	if err := hostSystem(t, c, HostUser, 161, plan, client.Options{}).
		AnnounceHandleVia(ctx, hostTracker(t, c, HostUser), h, time.Minute); err != nil {
		t.Fatal(err)
	}

	got, _, err := hostSystem(t, c, "via", 162, plan, client.Options{}).
		FetchFileVia(ctx, hostTracker(t, c, "via"), &h.Manifest, secret)
	if err != nil {
		t.Fatalf("fetch via tracker: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("via fetch decoded different bytes")
	}
	dials := peerDials(c, "via")
	for _, p := range c.Peers {
		if dials[p.Host] != 1 {
			t.Errorf("via fetch of %d chunks dialed %s %d times, want once", len(h.Manifest.Chunks), p.Host, dials[p.Host])
		}
	}

	res := sharePlaced(t, ctx, c, plan, data)
	got, _, err = hostSystem(t, c, "placed", 163, plan, client.Options{}).FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		t.Fatalf("placed fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("placed fetch decoded different bytes")
	}
	holders := make(map[string]bool)
	for _, set := range res.Handle.ChunkPeers {
		for _, addr := range set {
			holders[addr] = true
		}
	}
	dials = peerDials(c, "placed")
	for _, p := range c.Peers {
		want := 0
		if holders[p.Addr] {
			want = 1
		}
		if dials[p.Host] != want {
			t.Errorf("placed fetch dialed %s %d times, want %d", p.Host, dials[p.Host], want)
		}
	}
}

func TestHedgeAppliesToViaAndPlacedFetches(t *testing.T) {
	seed := Seed(t, 59)
	ctx := testCtx(t)
	c := Start(t, seed, 3)
	// 64 KiB chunks of 4 KiB pieces: each chunk far outsizes the
	// stalled link's burst, so the wedge always bites mid-chunk.
	plan := chunk.Plan{FieldBits: gf.Bits8, M: 4096, ChunkSize: 64 << 10}
	data, h, secret := shareOverloadFile(t, ctx, c, plan, 192<<10)
	if err := hostSystem(t, c, HostUser, 164, plan, client.Options{}).
		AnnounceHandleVia(ctx, hostTracker(t, c, HostUser), h, time.Minute); err != nil {
		t.Fatal(err)
	}
	res := sharePlaced(t, ctx, c, plan, data)

	// stall wedges a peer's uplink to host to a trickle after one burst.
	stall := func(addr, host string) {
		for _, p := range c.Peers {
			if p.Addr == addr {
				c.Fabric.SetLink(p.Host, host, netsim.LinkPolicy{BytesPerSec: 50, Burst: 16 << 10})
			}
		}
	}
	hedged := func(host string, key byte) (*core.System, *metrics.Registry) {
		sys := hostSystem(t, c, host, key, plan, client.Options{Hedge: true, HedgeDelay: 150 * time.Millisecond})
		reg := metrics.NewRegistry()
		sys.Client().Instrument(reg)
		return sys, reg
	}

	// A fresh health ladder keeps each chunk's peer order, rotated by
	// the chunk index: chunk 0 starts on the first peer of its set —
	// the lowest address, as the tracker sorts its answers.
	first := append([]string(nil), h.Peers...)
	for _, a := range first[1:] {
		if a < first[0] {
			first[0] = a
		}
	}
	stall(first[0], "via")
	sys, reg := hedged("via", 165)
	got, _, err := sys.FetchFileVia(ctx, hostTracker(t, c, "via"), &h.Manifest, secret)
	if err != nil {
		t.Fatalf("hedged fetch via tracker: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("via fetch decoded different bytes")
	}
	if v := reg.Counter(client.MetricHedgeLaunched, "").Value(); v < 1 {
		t.Errorf("via fetch: hedge_launched_total = %d, want >= 1 (stalled chunk never re-issued)", v)
	}

	stall(res.Handle.ChunkPeers[0][0], "placed")
	sys, reg = hedged("placed", 166)
	got, _, err = sys.FetchFile(ctx, &res.Handle, res.Secret)
	if err != nil {
		t.Fatalf("hedged placed fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("placed fetch decoded different bytes")
	}
	if v := reg.Counter(client.MetricHedgeLaunched, "").Value(); v < 1 {
		t.Errorf("placed fetch: hedge_launched_total = %d, want >= 1 (stalled chunk never re-issued)", v)
	}
}
