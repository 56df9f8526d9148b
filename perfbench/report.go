package main

// Turning a timed window into metrics.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asymshare/internal/client"
	"asymshare/internal/metrics"
	"asymshare/internal/peer"
	"asymshare/internal/wire"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // how the number was read, e.g. the tail's percentile
}

func (m metric) String() string {
	s := fmt.Sprintf("%-32s %14.6f %s", m.name, m.value, m.unit)
	if m.note != "" {
		s += "  (" + m.note + ")"
	}
	return s
}

// metricDef is a metric's unit and which direction is better.
type metricDef struct {
	unit   string
	better string // "higher" or "lower"
}

// defs describes every metric the command prints.
var defs = map[string]metricDef{
	"setup_s":              {"s", "lower"},
	"fetch_goodput_mibps":  {"MiB/s", "higher"},
	"fetch_latency_p50_s":  {"s", "lower"},
	"fetch_latency_tail_s": {"s", "lower"},
	"fetch_fail_ratio":     {"ratio", "lower"},
	"cap_ratio":            {"ratio", "higher"},
	"cap_overshoot":        {"ratio", "lower"},
	"fairness_error":       {"ratio", "lower"},
	"upload_overhead":      {"ratio", "lower"},
	"share_mibps":          {"MiB/s", "higher"},
	"share_latency_p50_s":  {"s", "lower"},
	"share_latency_tail_s": {"s", "lower"},
	"share_fail_ratio":     {"ratio", "lower"},
	"cpu_s_per_mib":        {"s/MiB", "lower"},
	"mem_peak_mib":         {"MiB", "lower"},

	"ratelimit.wait_s":                {"s", "lower"},
	"ratelimit.throttled":             {"count", "lower"},
	"fairshare.allocate_calls":        {"count", "lower"},
	"fairshare.allocate_s":            {"s", "lower"},
	"fairshare.min_grant_bps":         {"B/s", "higher"},
	"fairshare.grant_share_hi":        {"ratio", "lower"},
	"peer.served_bytes":               {"B", "higher"},
	"peer.upload_over_cap":            {"ratio", "lower"},
	"peer.streams_active_max":         {"count", "lower"},
	"peer.realloc_s":                  {"s", "lower"},
	"transport.dials":                 {"count", "lower"},
	"transport.dial_s":                {"s", "lower"},
	"transport.read_blocked_s":        {"s", "lower"},
	"transport.peer_write_blocked_s":  {"s", "lower"},
	"transport.bytes_in":              {"B", "higher"},
	"wire.frames_received":            {"count", "higher"},
	"wire.bytes_per_frame":            {"B", "higher"},
	"client.innovative_ratio":         {"ratio", "higher"},
	"client.redundant_msgs":           {"count", "lower"},
	"client.rejected_msgs":            {"count", "lower"},
	"client.decode_queue_depth_max":   {"count", "lower"},
	"client.decode_busy_workers_mean": {"count", "lower"},
	"store.get_calls":                 {"count", "lower"},
	"store.get_s":                     {"s", "lower"},
	"store.put_calls":                 {"count", "higher"},
	"store.put_s":                     {"s", "lower"},
	"core.share_self_s":               {"s", "lower"},
	"runtime.mallocs_per_mib":         {"count/MiB", "lower"},
	"runtime.alloc_bytes_per_mib":     {"B/MiB", "lower"},
	"runtime.gc_cycles":               {"count", "lower"},
	"loadgen.lag_p50_s":               {"s", "lower"},
	"loadgen.lag_max_s":               {"s", "lower"},
	"loadgen.inflight_max":            {"count", "lower"},
	"trace.overhead_cpu":              {"ratio", "lower"},
}

// gatedEndToEnd are the end-to-end metrics the final JSON line carries
// on every workload (BENCHMARK.json lists the same). The others are
// printed where they apply; each is zero or undefined on some
// workload, so none can carry a bound.
var gatedEndToEnd = []string{
	"setup_s", "fetch_goodput_mibps", "fetch_latency_p50_s", "fetch_latency_tail_s",
	"upload_overhead", "cpu_s_per_mib", "mem_peak_mib",
}

// perLayer are the per-layer metrics of a traced run, in print order.
var perLayer = []string{
	"ratelimit.wait_s", "ratelimit.throttled",
	"fairshare.allocate_calls", "fairshare.allocate_s", "fairshare.min_grant_bps", "fairshare.grant_share_hi",
	"peer.served_bytes", "peer.upload_over_cap", "peer.streams_active_max", "peer.realloc_s",
	"transport.dials", "transport.dial_s", "transport.read_blocked_s", "transport.peer_write_blocked_s", "transport.bytes_in",
	"wire.frames_received", "wire.bytes_per_frame",
	"client.innovative_ratio", "client.redundant_msgs", "client.rejected_msgs",
	"client.decode_queue_depth_max", "client.decode_busy_workers_mean",
	"store.get_calls", "store.get_s", "store.put_calls", "store.put_s",
	"core.share_self_s",
	"runtime.mallocs_per_mib", "runtime.alloc_bytes_per_mib", "runtime.gc_cycles",
	"loadgen.lag_p50_s", "loadgen.lag_max_s", "loadgen.inflight_max",
	"trace.overhead_cpu",
}

// report is everything one run prints.
type report struct {
	metrics   []metric
	jsonNames []string // the metrics the result line carries
	attempted int
	failed    int
	corrupt   int
}

func (r *report) add(name string, value float64, note string) {
	d, ok := defs[name]
	if !ok {
		panic("perfbench: metric " + name + " has no definition")
	}
	r.metrics = append(r.metrics, metric{name: name, unit: d.unit, value: value, note: note})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() result {
	res := result{Correct: r.corrupt == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, name := range r.jsonNames {
		for _, m := range r.metrics {
			if m.name == name {
				res.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
			}
		}
	}
	return res
}

// measured is one timed window together with the process and cluster
// counters around it.
type measured struct {
	out        *outcome
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	heapPeak   float64 // MiB
	served     []int64 // per peer, bytes served in the window

	// Traced run only.
	st        *layerStats
	ctr       counters
	regs      regTotals
	gauges    *gaugeSampler
	spansFrom float64 // tracer time at the window start
}

// deliveredMiB is what the window delivered to users: plaintext fetched
// plus plaintext shared.
func (m *measured) deliveredMiB() float64 {
	return float64(m.out.fetched+m.out.shared) / mib
}

func (m *measured) cpuPerMiB() float64 {
	if d := m.deliveredMiB(); d > 0 {
		return m.cpu.Seconds() / d
	}
	return 0
}

// measure runs one timed window on e. With instruments on it also
// reads the layer counters, the program's registries and the gauges.
func measure(ctx context.Context, sp spec, e *env, seed int64, window time.Duration, in instruments, wireReg *metrics.Registry) *measured {
	runtime.GC() // start every window from a collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	served0 := e.cl.servedBytes()
	m := &measured{}
	var ctr0 counters
	var regs0 regTotals
	if in.on() {
		m.st = in.st
		ctr0 = in.st.snapshot()
		regs0 = readRegs(e, wireReg)
		in.st.resetGrants()
		m.spansFrom = time.Since(in.tr.t0).Seconds()
		m.gauges = startGaugeSampler(e)
	}
	heap := startHeapSampler()
	cpu0 := cpuTime()

	m.out = drive(ctx, sp, e, seed, window, in)

	m.cpu = cpuTime() - cpu0
	m.heapPeak = heap.peakMiB()
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	served1 := e.cl.servedBytes()
	m.served = make([]int64, len(served1))
	for i := range served1 {
		m.served[i] = served1[i] - served0[i]
	}
	if in.on() {
		m.gauges.finish()
		m.ctr = in.st.snapshot().sub(ctr0)
		m.regs = readRegs(e, wireReg).sub(regs0)
	}
	return m
}

// runUntraced sets the workload up setupReps times, measures one
// window and reports the end-to-end metrics.
func runUntraced(ctx context.Context, sp spec, seed int64, window time.Duration) (*report, error) {
	e, setupS, err := timedSetup(ctx, sp, seed, setupReps, instruments{})
	if err != nil {
		return nil, err
	}
	defer e.close()
	m := measure(ctx, sp, e, seed, window, instruments{}, nil)
	rep := &report{jsonNames: gatedEndToEnd}
	endToEnd(rep, sp, setupS, m)
	return rep, nil
}

// endToEnd adds every end-to-end metric that applies to sp.
func endToEnd(rep *report, sp spec, setupS float64, m *measured) {
	o := m.out
	win := o.doneSeconds
	goodput := float64(o.fetched) / mib / win
	rep.add("setup_s", setupS, fmt.Sprintf("median of %d set-ups", setupReps))
	rep.add("fetch_goodput_mibps", goodput, fmt.Sprintf("%.1f MiB in %.2f s", float64(o.fetched)/mib, win))
	fl := summarize(o.fetch.samples)
	rep.add("fetch_latency_p50_s", fl.p50, fmt.Sprintf("n=%d", fl.n))
	rep.add("fetch_latency_tail_s", fl.tail, fmt.Sprintf("p%.1f of n=%d, %d beyond", fl.tailPct, fl.n, fl.tailBeyond))
	rep.add("fetch_fail_ratio", failRatio(o.fetch.samples), fmt.Sprintf("of %d fetches", len(o.fetch.samples)))
	if sp.capBps > 0 {
		sumCaps := sp.capBps * float64(sp.peers) / mib
		rep.add("cap_ratio", goodput/sumCaps, fmt.Sprintf("sum of caps %.1f MiB/s", sumCaps))
		rep.add("cap_overshoot", capOvershoot(m.served, o.windowSeconds, sp.capBps), "")
	}
	if sp.hiCredit > 0 {
		hi := userRate(o, 0)
		lo := userRate(o, 1)
		rep.add("fairness_error", fairnessError(hi, lo, sp.wantHiShare()),
			fmt.Sprintf("hi %.2f MiB/s, lo %.2f MiB/s, Eq. (2) share %.2f", hi, lo, sp.wantHiShare()))
	}
	var served int64
	for _, b := range m.served {
		served += b
	}
	overhead := 0.0
	if o.fetched > 0 {
		overhead = float64(served) / float64(o.fetched)
	}
	rep.add("upload_overhead", overhead, "bytes the peers served to the clients / bytes decoded")
	if sp.shareBytes > 0 {
		sl := summarize(o.share.samples)
		rep.add("share_mibps", float64(o.shared)/mib/win, "")
		rep.add("share_latency_p50_s", sl.p50, fmt.Sprintf("n=%d", sl.n))
		rep.add("share_latency_tail_s", sl.tail, fmt.Sprintf("p%.1f of n=%d, %d beyond", sl.tailPct, sl.n, sl.tailBeyond))
		rep.add("share_fail_ratio", failRatio(o.share.samples), fmt.Sprintf("of %d shares", len(o.share.samples)))
	}
	rep.add("cpu_s_per_mib", m.cpuPerMiB(), fmt.Sprintf("%.2f CPU s over %.1f MiB", m.cpu.Seconds(), m.deliveredMiB()))
	rep.add("mem_peak_mib", m.heapPeak, "peak heap in use")
	rep.count(o)
}

// count fills the attempted, failed and corrupt totals.
func (rep *report) count(o *outcome) {
	for _, r := range []loopResult{o.fetch, o.share} {
		rep.attempted += len(r.samples)
		for _, s := range r.samples {
			if s.failed {
				rep.failed++
			}
		}
		rep.corrupt += r.corrupt
	}
}

// userRate is one user's fetch goodput in MiB/s.
func userRate(o *outcome, ui int) float64 {
	return float64(o.userFetched[ui]) / mib / o.doneSeconds
}

// runTraced measures the workload twice on fresh set-ups, each for
// half the window: once untraced and once traced. It reports the
// per-layer metrics of the traced half and the tracing overhead as the
// traced half's CPU per MiB against the untraced half's.
func runTraced(ctx context.Context, sp spec, seed int64, window time.Duration, traceDir string, st stamp) (*report, error) {
	half := window / 2
	if half < time.Second {
		half = time.Second
	}
	plain, err := setup(ctx, sp, seed, instruments{})
	if err != nil {
		return nil, err
	}
	base := measure(ctx, sp, plain, seed, half, instruments{}, nil)
	plain.close()

	in := instruments{tr: newTracer(), st: &layerStats{}}
	wireReg := metrics.NewRegistry()
	wire.Instrument(wireReg)
	defer wire.Instrument(nil)
	e, err := setup(ctx, sp, seed, in)
	if err != nil {
		return nil, err
	}
	defer e.close()
	m := measure(ctx, sp, e, seed, half, in, wireReg)

	rep := &report{jsonNames: perLayer}
	spans := in.tr.Spans()
	layers(rep, sp, m, spans)
	overhead := 0.0
	if b := base.cpuPerMiB(); b > 0 {
		overhead = m.cpuPerMiB()/b - 1
	}
	rep.add("trace.overhead_cpu", overhead, fmt.Sprintf("traced %.4f vs untraced %.4f CPU s/MiB over %d spans",
		m.cpuPerMiB(), base.cpuPerMiB(), len(spans)))
	rep.count(m.out)
	rep.count(base.out)

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
	if err := in.tr.WriteFile(path, st); err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s\n", path)
	return rep, nil
}

// layers adds the per-layer metrics of a traced window.
func layers(rep *report, sp spec, m *measured, spans []Span) {
	c, r, g, o := m.ctr, m.regs, m.gauges, m.out
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	perMiB := func(x float64) float64 {
		if d := m.deliveredMiB(); d > 0 {
			return x / d
		}
		return 0
	}
	rep.add("ratelimit.wait_s", r[peer.MetricWaitSeconds], "time serve loops blocked in token buckets")
	rep.add("ratelimit.throttled", r[peer.MetricThrottled], "")
	rep.add("fairshare.allocate_calls", float64(c[allocCalls]), "")
	rep.add("fairshare.allocate_s", sec(c[allocNs]), "")
	minGrant, hiShare := m.st.grants()
	rep.add("fairshare.min_grant_bps", minGrant, "smallest grant to an active requester")
	rep.add("fairshare.grant_share_hi", hiShare, "0 without a high-standing user")
	rep.add("peer.served_bytes", r[peer.MetricServedBytes], "")
	rep.add("peer.upload_over_cap", uploadOverCap(m, g, sp.capBps), "served rate while streams are active / cap - 1")
	rep.add("peer.streams_active_max", g.streamsMax, "")
	rep.add("peer.realloc_s", r[peer.MetricReallocDur], "")
	rep.add("transport.dials", float64(c[dials]), "")
	rep.add("transport.dial_s", sec(c[dialNs]), "")
	rep.add("transport.read_blocked_s", sec(c[readNs]), "client conns")
	rep.add("transport.peer_write_blocked_s", sec(c[peerWriteNs]), "peer conns")
	rep.add("transport.bytes_in", float64(c[bytesIn]), "client conns")
	rep.add("wire.frames_received", r[wire.MetricFramesRecv], "")
	perFrame := 0.0
	if r[wire.MetricFramesRecv] > 0 {
		perFrame = r[wire.MetricBytesReceived] / r[wire.MetricFramesRecv]
	}
	rep.add("wire.bytes_per_frame", perFrame, "")
	innov := 0.0
	if r[client.MetricMessages] > 0 {
		innov = r[client.MetricInnovativeMessages] / r[client.MetricMessages]
	}
	rep.add("client.innovative_ratio", innov, "")
	rep.add("client.redundant_msgs", r[client.MetricRedundantMessages], "")
	rep.add("client.rejected_msgs", r[client.MetricRejectedMessages], "")
	rep.add("client.decode_queue_depth_max", g.depthMax, "")
	busy := 0.0
	if g.ticks > 0 {
		busy = g.busyTotal / float64(g.ticks)
	}
	rep.add("client.decode_busy_workers_mean", busy, "")
	rep.add("store.get_calls", float64(c[getCalls]), "")
	rep.add("store.get_s", sec(c[getNs]), "")
	rep.add("store.put_calls", float64(c[putCalls]), "")
	rep.add("store.put_s", sec(c[putNs]), "")
	rep.add("core.share_self_s", selfTime(spans, "core.share", "write_blocked_s", m.spansFrom), "share spans minus their transport writes")
	rep.add("runtime.mallocs_per_mib", perMiB(float64(m.mallocs)), "")
	rep.add("runtime.alloc_bytes_per_mib", perMiB(float64(m.allocBytes)), "")
	rep.add("runtime.gc_cycles", float64(m.gcCycles), "")
	lagP50, lagMax := lateness(o.fetch.lags)
	rep.add("loadgen.lag_p50_s", lagP50, "open loop only")
	rep.add("loadgen.lag_max_s", lagMax, "open loop only")
	rep.add("loadgen.inflight_max", float64(o.fetch.inflightMax), "open loop only")
}

// uploadOverCap is the largest per-peer ratio of served rate, over the
// time the peer had at least one active stream, to the cap, minus one.
// It is 0 for unshaped peers.
func uploadOverCap(m *measured, g *gaugeSampler, capBps float64) float64 {
	if capBps <= 0 {
		return 0
	}
	worst := -1.0
	for i, b := range m.served {
		active := float64(g.activeTicks[i]) * g.samplePeriod.Seconds()
		if active <= 0 {
			continue
		}
		if v := float64(b)/active/capBps - 1; v > worst {
			worst = v
		}
	}
	if worst < -1 {
		return 0
	}
	return worst
}
