package client

// White-box coverage of the per-peer health registry and circuit
// breaker: trip on consecutive failures, cooldown with a single
// half-open probe, doubled quarantine on probe failure, recovery on
// success, and the hedge-delay estimator.

import (
	"testing"
	"time"
)

// testRegistry builds a registry with a stepped fake clock.
func testRegistry(opt Options) (*healthRegistry, *time.Time) {
	var m clientMetrics
	h := newHealthRegistry(&m, opt.withDefaults())
	now := time.Unix(1000, 0)
	h.now = func() time.Time { return now }
	return h, &now
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	h, _ := testRegistry(Options{BreakerThreshold: 3})
	for i := 0; i < 2; i++ {
		h.recordFailure("p")
	}
	if !h.allow("p") {
		t.Fatal("breaker open below threshold")
	}
	h.recordFailure("p")
	if h.allow("p") {
		t.Fatal("breaker still closed after threshold consecutive failures")
	}
	if s := h.snapshot("p"); s.Breaker != "open" || s.ConsecFails != 3 {
		t.Fatalf("snapshot %+v, want open with 3 consecutive failures", s)
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	h, _ := testRegistry(Options{BreakerThreshold: 2})
	h.recordFailure("p")
	h.recordSuccess("p", 0)
	h.recordFailure("p")
	if !h.allow("p") {
		t.Fatal("interleaved success did not reset the failure run")
	}
}

func TestBreakerHalfOpenSingleProbeAndRecovery(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	h.recordFailure("p")
	if h.allow("p") || h.beginProbe("p") {
		t.Fatal("probe granted inside the cooldown")
	}
	*now = now.Add(time.Second)
	if !h.allow("p") {
		t.Fatal("cooled-down breaker not a probe candidate")
	}
	if !h.beginProbe("p") {
		t.Fatal("probe slot not granted after cooldown")
	}
	// The slot is exclusive until the probe resolves.
	if h.beginProbe("p") || h.allow("p") {
		t.Fatal("second concurrent probe granted")
	}
	if s := h.snapshot("p"); s.Breaker != "half-open" {
		t.Fatalf("breaker %s, want half-open", s.Breaker)
	}
	h.recordSuccess("p", 10*time.Millisecond)
	if s := h.snapshot("p"); s.Breaker != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", s.Breaker)
	}
}

func TestBreakerFailedProbeDoublesCooldown(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	h.recordFailure("p")
	*now = now.Add(time.Second)
	if !h.beginProbe("p") {
		t.Fatal("probe not granted")
	}
	h.recordFailure("p") // probe failed: re-open, cooldown doubles to 2s
	if h.allow("p") {
		t.Fatal("breaker not re-opened after failed probe")
	}
	*now = now.Add(time.Second)
	if h.beginProbe("p") {
		t.Fatal("probe granted after only the original cooldown")
	}
	*now = now.Add(time.Second)
	if !h.beginProbe("p") {
		t.Fatal("probe not granted after the doubled cooldown")
	}
}

func TestHealthOrderRanksAndQuarantines(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	const fast, slow, sick = "fast", "slow", "sick"
	h.recordSuccess("fast", 10*time.Millisecond)
	h.recordSuccess("slow", 500*time.Millisecond)
	h.recordFailure("sick")

	ladder, probeFrom := h.order([]string{slow, sick, fast}, 0)
	if len(ladder) != 2 || probeFrom != 2 {
		t.Fatalf("ladder %d long, probeFrom %d: quarantined peer not excluded", len(ladder), probeFrom)
	}
	if ladder[0] != fast || ladder[1] != slow {
		t.Fatalf("ladder order [%s %s], want healthiest first", ladder[0], ladder[1])
	}

	// Rotation spreads concurrent chunks across healthy peers only.
	ladder, _ = h.order([]string{slow, sick, fast}, 1)
	if ladder[0] != slow {
		t.Fatalf("rotated ladder starts at %s, want slow", ladder[0])
	}

	// After the cooldown the sick peer rejoins as a probe candidate,
	// always ranked after the healthy rungs.
	*now = now.Add(time.Second)
	ladder, probeFrom = h.order([]string{sick, fast, slow}, 0)
	if len(ladder) != 3 || probeFrom != 2 || ladder[2] != sick {
		t.Fatalf("probe candidate placement wrong: len %d probeFrom %d last %s",
			len(ladder), probeFrom, ladder[len(ladder)-1])
	}
}

func TestHedgeDelayEstimator(t *testing.T) {
	h, _ := testRegistry(Options{})
	if d := h.hedgeDelay(); d != DefaultHedgeDelay {
		t.Fatalf("cold-start hedge delay %v, want %v", d, DefaultHedgeDelay)
	}
	for i := 0; i < 20; i++ {
		h.recordSuccess("p", 100*time.Millisecond)
	}
	d := h.hedgeDelay()
	if d != 150*time.Millisecond { // p95 of identical samples x1.5 headroom
		t.Fatalf("adaptive hedge delay %v, want 150ms", d)
	}
	h.hedgeOverride = 42 * time.Millisecond
	if d := h.hedgeDelay(); d != 42*time.Millisecond {
		t.Fatalf("override ignored: %v", d)
	}
}

// TestShedProbeReleasesHalfOpenSlot pins the probe-slot release: a
// half-open probe stream that ends in a BUSY shed proved the peer
// alive, so the breaker closes and the slot frees. Classifying the
// shed without touching the breaker used to strand the peer in
// half-open with probing set forever — permanently excluded from the
// hedge ladder.
func TestShedProbeReleasesHalfOpenSlot(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	h.recordFailure("p")
	*now = now.Add(time.Second)
	if !h.beginProbe("p") {
		t.Fatal("probe not granted after cooldown")
	}
	h.recordShed("p")
	if s := h.snapshot("p"); s.Breaker != "closed" || s.Sheds != 1 {
		t.Fatalf("snapshot %+v after shed probe, want closed breaker with 1 shed", s)
	}
	if !h.allow("p") {
		t.Fatal("peer still excluded after its shed probe resolved")
	}
	ladder, probeFrom := h.order([]string{"p"}, 0)
	if len(ladder) != 1 || probeFrom != 1 {
		t.Fatalf("ladder len %d probeFrom %d, want the peer back as a healthy rung", len(ladder), probeFrom)
	}
}

func TestShedsFeedScoreNotBreaker(t *testing.T) {
	h, _ := testRegistry(Options{BreakerThreshold: 1})
	for i := 0; i < 10; i++ {
		h.recordShed("busy")
	}
	if !h.allow("busy") {
		t.Fatal("sheds tripped the breaker; only failures may")
	}
	if s := h.snapshot("busy"); s.Sheds != 10 || s.Failures != 0 {
		t.Fatalf("snapshot %+v, want 10 sheds and 0 failures", s)
	}
	// But they do nudge the ranking behind an unshedded peer.
	ladder, _ := h.order([]string{"busy", "calm"}, 0)
	if ladder[0] != "calm" {
		t.Fatal("shed-heavy peer ranked ahead of a calm one")
	}
}

// TestAbandonedProbeReturnsToOpen: a probe stream cancelled before it
// reached the peer proved nothing, so the breaker goes back to open —
// neither closed on no evidence nor stranded half-open with its single
// probe slot claimed — and the peer is a probe candidate again.
func TestAbandonedProbeReturnsToOpen(t *testing.T) {
	h, now := testRegistry(Options{BreakerThreshold: 1, BreakerCooldown: time.Second})
	h.recordFailure("p")
	*now = now.Add(time.Second)
	if !h.beginProbe("p") {
		t.Fatal("probe not granted after cooldown")
	}
	h.abandonProbe("p")
	if s := h.snapshot("p"); s.Breaker != "open" {
		t.Fatalf("breaker %q after an abandoned probe, want open", s.Breaker)
	}
	if !h.beginProbe("p") {
		t.Fatal("probe slot not handed back by the abandoned probe")
	}
}
