package main

// The three workloads and the measurement around them. See README.md
// for why each workload exists and which layer metric should move
// which end-to-end metric on it.

import (
	"context"
	"fmt"
	"math/rand"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/fairshare"
	"asymshare/internal/gf"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/wire"
)

// spec fixes every input of a workload except the seed.
type spec struct {
	name      string
	peers     int
	capBps    float64 // per-peer upload cap; 0 = unshaped
	plan      chunk.Plan
	fileBytes int // size of the file each fetcher reads

	// remote-access: one user in an open loop, whose fetches each
	// have until their due time plus deadline to finish.
	openLoop    bool
	deadline    time.Duration
	meanGap     time.Duration // mean of the exponential inter-arrival gap
	minGap      time.Duration // gaps are truncated to [minGap, maxGap]
	maxGap      time.Duration
	maxInflight int

	// contended: two closed-loop fetchers with pre-credited standing.
	hiCredit, loCredit float64

	// bulk-rw: a closed-loop fetcher beside a closed-loop sharer.
	shareBytes int
}

// kernelPlan is the bulk-rw plan: GF(2^8), K = 64, 1 MiB chunks and
// 16 KiB messages, the field whose multiply-add has the SIMD kernel.
var kernelPlan = chunk.Plan{FieldBits: gf.Bits8, M: 16 << 10, ChunkSize: 1 << 20}

// workloads are the named workloads, at full size.
var workloads = map[string]spec{
	"remote-access": {
		name: "remote-access", peers: 6, capBps: 2 * mib, plan: chunk.DefaultPlan(), fileBytes: 8 * mib,
		openLoop: true, meanGap: 2 * time.Second, minGap: 200 * time.Millisecond, maxGap: 3 * time.Second,
		maxInflight: 2, deadline: 10 * time.Second,
	},
	"contended": {
		name: "contended", peers: 6, capBps: 2 * mib, plan: chunk.DefaultPlan(), fileBytes: 8 * mib,
		hiCredit: 48 * mib, loCredit: 16 * mib,
	},
	"bulk-rw": {
		name: "bulk-rw", peers: 4, plan: kernelPlan, fileBytes: 16 * mib, shareBytes: 4 * mib,
	},
}

// wantHiShare is the Eq. (2) goodput share of the high-standing user.
func (s spec) wantHiShare() float64 { return s.hiCredit / (s.hiCredit + s.loCredit) }

// env is a set-up workload: peers running, corpus shared.
type env struct {
	cl    *cluster
	users []*user
	files []*sharedFile // files[i] is what users[i] fetches; nil for the bulk-rw sharer
}

func (e *env) close() { e.cl.close() }

// setup boots the peers, pre-credits the ledgers and shares the
// corpus. The corpus is drawn from seed, so every repetition shares
// the same bytes.
func setup(ctx context.Context, sp spec, seed int64, in instruments) (*env, error) {
	nUsers := 1
	if sp.hiCredit > 0 || sp.shareBytes > 0 {
		nUsers = 2
	}
	e := &env{}
	for i := 0; i < nUsers; i++ {
		u, err := newUser(seed, i, sp.plan, in)
		if err != nil {
			return nil, err
		}
		e.users = append(e.users, u)
	}
	var credits map[fairshare.ID]float64
	var hi fairshare.ID
	if sp.hiCredit > 0 {
		hi = e.users[0].fingerprint()
		credits = map[fairshare.ID]float64{hi: sp.hiCredit, e.users[1].fingerprint(): sp.loCredit}
	}
	cl, err := startCluster(seed, sp.peers, sp.capBps, credits, hi, in)
	if err != nil {
		return nil, err
	}
	e.cl = cl
	rng := rand.New(rand.NewSource(seed))
	fetchers := nUsers
	if sp.shareBytes > 0 {
		fetchers = 1 // the second bulk-rw user only shares
	}
	e.files = make([]*sharedFile, nUsers)
	for i := 0; i < fetchers; i++ {
		data := randomFile(rng, sp.fileBytes)
		f, err := e.users[i].share(ctx, in, fmt.Sprintf("setup-share-%d", i), fmt.Sprintf("corpus-%d", i), data, cl.addrs)
		if err == nil {
			err = cl.checkStored(f)
		}
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("share corpus: %w", err)
		}
		e.files[i] = f
	}
	return e, nil
}

// timedSetup runs setup reps times and keeps the last environment. It
// returns the median set-up time in seconds.
func timedSetup(ctx context.Context, sp spec, seed int64, reps int, in instruments) (*env, float64, error) {
	var (
		times []float64
		e     *env
	)
	for r := 0; r < reps; r++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		e, err = setup(ctx, sp, seed, in)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}

// outcome is what one timed window produced.
type outcome struct {
	fetch, share loopResult
	fetched      int64   // plaintext bytes of fetches that succeeded
	shared       int64   // plaintext bytes of shares that succeeded
	userFetched  []int64 // fetched, per user

	// windowSeconds runs from the start of the load to its end,
	// including the operations the window end cut short; doneSeconds
	// runs to the last counted operation. Rates of completed work use
	// doneSeconds, so a closed loop is not charged for the operation
	// it had to abandon; served-byte rates use windowSeconds.
	windowSeconds, doneSeconds float64
}

// drive runs the workload's load against e for window, starting now,
// and returns what it produced.
func drive(ctx context.Context, sp spec, e *env, seed int64, window time.Duration, in instruments) *outcome {
	out := &outcome{userFetched: make([]int64, len(e.users))}
	var mu sync.Mutex // guards out.fetched and the per-user slices
	t0 := time.Now()
	fetchOp := func(ui int) opFunc {
		return func(ctx context.Context, seq int) (func() error, error) {
			err := e.users[ui].fetch(ctx, in, fmt.Sprintf("fetch-u%d-%d", ui, seq), e.files[ui])
			if err == nil {
				mu.Lock()
				out.fetched += int64(len(e.files[ui].data))
				out.userFetched[ui] += int64(len(e.files[ui].data))
				mu.Unlock()
			}
			return nil, err
		}
	}

	switch {
	case sp.openLoop:
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := int(window / truncatedMean(sp.meanGap, sp.minGap, sp.maxGap))
		if n < 1 {
			n = 1
		}
		dues := make([]time.Duration, n)
		var at time.Duration
		for i, g := range openLoopGaps(rng, n, sp.meanGap, sp.minGap, sp.maxGap) {
			at += g
			dues[i] = at
		}
		out.fetch = openLoop(ctx, t0, dues, sp.maxInflight, sp.deadline, fetchOp(0))

	default:
		until := t0.Add(window)
		results := make([]loopResult, len(e.users))
		var wg sync.WaitGroup
		for ui := range e.users {
			wg.Add(1)
			go func(ui int) {
				defer wg.Done()
				if e.files[ui] != nil {
					results[ui] = closedLoop(ctx, until, fetchOp(ui))
					return
				}
				results[ui] = closedLoop(ctx, until, shareOp(e, ui, seed, sp.shareBytes, in, &out.shared, &mu))
			}(ui)
		}
		wg.Wait()
		for ui, r := range results {
			if e.files[ui] == nil {
				out.share = r
				continue
			}
			out.fetch.samples = append(out.fetch.samples, r.samples...)
			out.fetch.corrupt += r.corrupt
			if r.lastDone.After(out.fetch.lastDone) {
				out.fetch.lastDone = r.lastDone
			}
		}
	}
	end := time.Now()
	out.windowSeconds = end.Sub(t0).Seconds()
	out.doneSeconds = out.windowSeconds
	if last := latest(out.fetch.lastDone, out.share.lastDone); !last.IsZero() {
		out.doneSeconds = last.Sub(t0).Seconds()
	}
	return out
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// shareOp returns the bulk-rw sharer's operation: share a fresh file,
// then, outside the timed region, check that every peer holds k
// messages of each chunk and drop the chunks so memory stays flat.
func shareOp(e *env, ui int, seed int64, size int, in instruments, shared *int64, mu *sync.Mutex) opFunc {
	base := randomFile(rand.New(rand.NewSource(seed^0x5a5e)), size)
	data := make([]byte, size)
	return func(ctx context.Context, seq int) (func() error, error) {
		copy(data, base)
		copy(data, fmt.Sprintf("share %d of run %d\n", seq, seed)) // each share is a new file
		f, err := e.users[ui].share(ctx, in, fmt.Sprintf("share-u%d-%d", ui, seq), fmt.Sprintf("upload-%d", seq), data, e.cl.addrs)
		if err != nil {
			return nil, err
		}
		return func() error {
			defer e.cl.drop(f)
			if err := e.cl.checkStored(f); err != nil {
				return err
			}
			mu.Lock()
			*shared += int64(size)
			mu.Unlock()
			return nil
		}, nil
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak of the heap in use (HeapInuse) every
// few milliseconds until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		rtmetrics.Read(samples)
		if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-h.stop:
				read()
				return
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / mib
}

// gaugeSampler reads the gauges the program exports that only make
// sense over time: each peer's active streams and each client's decode
// pipeline. It runs in the traced run only.
type gaugeSampler struct {
	stop, done chan struct{}

	streams     []*metrics.Gauge
	decodeDepth []*metrics.Gauge
	decodeBusy  []*metrics.Gauge

	ticks        int
	activeTicks  []int // per peer: samples with at least one stream
	streamsMax   float64
	depthMax     float64
	busyTotal    float64
	samplePeriod time.Duration
}

func startGaugeSampler(e *env) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{}), samplePeriod: 10 * time.Millisecond}
	for _, reg := range e.cl.regs {
		g.streams = append(g.streams, reg.Gauge(peer.MetricStreamsActive, ""))
	}
	for _, u := range e.users {
		g.decodeDepth = append(g.decodeDepth, u.reg.Gauge(client.MetricDecodeQueueDepth, ""))
		g.decodeBusy = append(g.decodeBusy, u.reg.Gauge(client.MetricDecodeBusyWorkers, ""))
	}
	g.activeTicks = make([]int, len(g.streams))
	go func() {
		defer close(g.done)
		tick := time.NewTicker(g.samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				g.sample()
			case <-g.stop:
				return
			}
		}
	}()
	return g
}

func (g *gaugeSampler) sample() {
	g.ticks++
	for i, s := range g.streams {
		v := s.Value()
		if v > 0 {
			g.activeTicks[i]++
		}
		if v > g.streamsMax {
			g.streamsMax = v
		}
	}
	var busy float64
	for i := range g.decodeDepth {
		if v := g.decodeDepth[i].Value(); v > g.depthMax {
			g.depthMax = v
		}
		busy += g.decodeBusy[i].Value()
	}
	g.busyTotal += busy
}

// finish stops the sampler; its fields are safe to read afterwards.
func (g *gaugeSampler) finish() {
	close(g.stop)
	<-g.done
}

// regTotals sums, per instrument family the per-layer metrics read,
// the counter values or histogram sums across every registry of a
// role.
type regTotals map[string]float64

// Families read from each registry; histograms contribute their sum.
var (
	peerFamilies   = []string{peer.MetricWaitSeconds, peer.MetricThrottled, peer.MetricServedBytes, peer.MetricReallocDur}
	clientFamilies = []string{client.MetricMessages, client.MetricInnovativeMessages, client.MetricRedundantMessages, client.MetricRejectedMessages}
	wireFamilies   = []string{wire.MetricFramesRecv, wire.MetricBytesReceived}
)

func readRegs(e *env, wireReg *metrics.Registry) regTotals {
	t := regTotals{}
	for _, reg := range e.cl.regs {
		t.add(reg, peerFamilies)
	}
	for _, u := range e.users {
		t.add(u.reg, clientFamilies)
	}
	t.add(wireReg, wireFamilies)
	return t
}

func (t regTotals) add(reg *metrics.Registry, families []string) {
	snap := reg.Snapshot()
	for _, name := range families {
		f, ok := snap.Find(name)
		if !ok {
			continue
		}
		for _, series := range f.Series {
			if series.Hist != nil {
				t[name] += series.Hist.SumScaled()
			} else {
				t[name] += series.Value
			}
		}
	}
}

func (t regTotals) sub(o regTotals) regTotals {
	out := regTotals{}
	for k, v := range t {
		out[k] = v - o[k]
	}
	return out
}
