package client

// The hedged scheduling policy (DESIGN.md §15), selected by
// Options.Hedge. Where the default policy streams a chunk from every
// peer at once — maximum instantaneous goodput, maximum wasted upload
// bandwidth — the hedged policy walks a health-ranked ladder: the chunk
// starts on the single healthiest peer of its set, and only when the
// stream stalls for a full hedge delay (p95-based, health.go) or ends
// without completing the chunk is it re-issued on the next-healthiest
// peer. The shared RLNC sink makes the race safe: whichever stream
// delivers the last innovative message wins, and duplicates are just
// redundant rows. Quarantined peers whose breaker cooldown has lapsed
// ride along as half-open probes so recovery is observed without
// risking the chunk on them.

import "time"

// hedged runs the chunk down the health ladder of addrs: one stream at
// a time, re-issued on stall, plus concurrent half-open probes for
// cooled-down quarantined peers. A ladder stream recovers like any
// other — it redials after an abort and waits out a BUSY shed — while
// the hedge timer re-issues the chunk whenever it makes no progress; a
// probe makes one attempt, which is its verdict. rotate (the chunk
// index) spreads concurrent chunks across equally healthy peers. Once
// no healthy rung is left and every stream has ended without
// completing the chunk, every peer not yet tried — quarantined or not
// — streams it at once: a client with no healthy alternative still
// tries every peer it knows.
func (r *chunkRun) hedged(addrs []string, rotate int, delay time.Duration) {
	defer func() {
		r.cancel()
		r.wg.Wait()
	}()
	ladder, probeFrom := r.c.health.order(addrs, rotate)
	probeTo := len(ladder)
	onLadder := make(map[string]bool, len(ladder))
	for _, a := range ladder {
		onLadder[a] = true
	}
	for _, a := range addrs {
		if !onLadder[a] { // inside its breaker cooldown
			ladder = append(ladder, a)
		}
	}
	launched := make([]bool, len(ladder))
	outstanding := 0
	launch := func(i int, probe bool) {
		launched[i] = true
		outstanding++
		r.start(ladder[i], !probe, probe)
	}
	// launchNext continues the ladder onto the next unstarted healthy
	// rung. With none left and no stream outstanding, it launches every
	// remaining peer instead: the last resort.
	launchNext := func() bool {
		for i := 0; i < probeFrom; i++ {
			if !launched[i] {
				launch(i, false)
				return true
			}
		}
		if outstanding > 0 {
			return false
		}
		for i := range ladder {
			if !launched[i] {
				launch(i, false)
			}
		}
		return outstanding > 0
	}

	// Primary stream plus every claimable half-open probe. The probes
	// are why a quarantined peer can ever be observed recovering: its
	// single post-cooldown stream runs alongside a healthy primary, so
	// the chunk never depends on it. With no healthy peer the primary
	// launch is already the last resort, which leaves nothing to probe.
	launchNext()
	for i := probeFrom; i < probeTo; i++ {
		if !launched[i] && r.c.health.beginProbe(ladder[i]) {
			launch(i, true)
		}
	}

	timer := time.NewTimer(delay)
	defer timer.Stop()
	var lastProgress int64
	for outstanding > 0 {
		select {
		case <-r.ctx.Done():
			return
		case <-r.ended:
			outstanding--
			if r.sink.Done() {
				return
			}
			// The rung ended — exhausted, shed, or failed — without
			// completing the chunk: walk the ladder immediately rather
			// than waiting out the hedge timer.
			launchNext()
		case <-timer.C:
			if r.progress.Load() == lastProgress && !r.sink.Done() {
				// A full hedge delay with not one byte of progress:
				// re-issue the chunk on the next-healthiest peer. The
				// straggler keeps running — it may still win — until
				// the chunk completes and cancel reaps it.
				if launchNext() {
					r.c.m.hedgeLaunched.Inc()
				}
			}
			lastProgress = r.progress.Load()
			timer.Reset(delay)
		}
	}
}
