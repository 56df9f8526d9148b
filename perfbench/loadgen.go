package main

// Load generators: a closed loop, where a user issues the next
// operation when the previous one returns, and an open loop, where
// operations fall due on a schedule whatever the system does.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc runs one operation and returns its error. post, when not
// nil, runs after the operation's latency is taken: checks and
// clean-up that belong outside the timed region. Its error fails the
// operation. A correctness failure is reported as (wrapping)
// errCorrupt.
type opFunc func(ctx context.Context, seq int) (post func() error, err error)

// runOp runs op and its post step, returning the time op alone took.
func runOp(ctx context.Context, op opFunc, seq int) (time.Duration, error) {
	start := time.Now()
	post, err := op(ctx, seq)
	lat := time.Since(start)
	if post != nil {
		if perr := post(); err == nil {
			err = perr
		}
	}
	return lat, err
}

// loopResult is what a generator observed.
type loopResult struct {
	samples  []sample
	corrupt  int       // operations whose output failed a correctness check
	lastDone time.Time // when the last counted operation finished

	// Open loop only.
	lags        []time.Duration // issue time minus due time, per arrival
	inflightMax int
}

func (r *loopResult) record(lat time.Duration, err error) {
	r.samples = append(r.samples, sample{latency: lat, failed: err != nil})
	r.lastDone = time.Now()
	if errors.Is(err, errCorrupt) {
		r.corrupt++
	}
}

// closedLoop runs op back to back until the until time. Its
// operations have no deadline of their own: a slow one is slow and
// shows in the latencies and rates. The window end cancels the
// operation in flight rather than setting a context deadline, because
// the client sends a deadline on to the peers, which then schedule
// the request differently. That operation is not counted: it was
// neither completed nor failed inside the window.
func closedLoop(ctx context.Context, until time.Time, op opFunc) loopResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cut := time.AfterFunc(time.Until(until), cancel)
	defer cut.Stop()
	var res loopResult
	for seq := 0; ctx.Err() == nil; seq++ {
		lat, err := runOp(ctx, op, seq)
		if err != nil && ctx.Err() != nil {
			break
		}
		res.record(lat, err)
	}
	return res
}

// openLoop issues one operation at t0+due for each due time, with at
// most maxInflight running at once; an arrival that finds every slot
// busy queues. Each operation has until its due time plus deadline to
// finish. Latency runs from the due time, so queueing behind a stalled
// operation counts; an operation that passes its deadline fails, and
// one whose deadline passed while it queued fails without being
// issued. openLoop returns once every arrival has finished.
func openLoop(ctx context.Context, t0 time.Time, dues []time.Duration, maxInflight int,
	deadline time.Duration, op opFunc) loopResult {
	type arrival struct {
		seq int
		due time.Time
	}
	queue := make(chan arrival, len(dues)) // sized to the number of sends
	var (
		mu       sync.Mutex // guards res
		res      loopResult
		inflight atomic.Int64
		maxSeen  atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < maxInflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				limit := a.due.Add(deadline)
				if !time.Now().Before(limit) {
					mu.Lock()
					res.record(time.Since(a.due), context.DeadlineExceeded)
					mu.Unlock()
					continue
				}
				n := inflight.Add(1)
				for m := maxSeen.Load(); n > m && !maxSeen.CompareAndSwap(m, n); m = maxSeen.Load() {
				}
				opCtx, cancel := context.WithDeadline(ctx, limit)
				_, err := runOp(opCtx, op, a.seq)
				cancel()
				end := time.Now()
				inflight.Add(-1)
				if err == nil && end.After(limit) {
					err = context.DeadlineExceeded
				}
				mu.Lock()
				res.record(end.Sub(a.due), err)
				mu.Unlock()
			}
		}()
	}
	lags := make([]time.Duration, 0, len(dues))
	timer := time.NewTimer(0)
	<-timer.C
	for seq, d := range dues {
		due := t0.Add(d)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			}
		}
		lags = append(lags, time.Since(due))
		queue <- arrival{seq: seq, due: due}
	}
	close(queue)
	wg.Wait()
	res.lags = lags
	res.inflightMax = int(maxSeen.Load())
	return res
}
