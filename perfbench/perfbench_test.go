package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func secs(xs ...float64) []sample {
	out := make([]sample, len(xs))
	for i, x := range xs {
		out[i] = sample{latency: time.Duration(x * float64(time.Second))}
	}
	return out
}

func TestSummarizeTailLeavesTenBeyond(t *testing.T) {
	var xs []float64
	for i := 30; i >= 1; i-- { // out of order on purpose
		xs = append(xs, float64(i))
	}
	got := summarize(secs(xs...))
	if got.n != 30 || got.p50 != 15 || got.tail != 20 || got.tailBeyond != 10 {
		t.Fatalf("summarize(1..30) = %+v, want p50 15, tail 20 with 10 beyond", got)
	}
	if math.Abs(got.tailPct-66.67) > 0.01 {
		t.Fatalf("tail percentile %.2f, want 66.67", got.tailPct)
	}
}

func TestSummarizeSmallSampleTailIsMedian(t *testing.T) {
	got := summarize(secs(3, 1, 2, 5, 4))
	if got.p50 != 3 || got.tail != 3 || got.tailBeyond != 2 {
		t.Fatalf("summarize(5 samples) = %+v, want tail at the median", got)
	}
	if (summarize(nil) != latencySummary{}) {
		t.Fatal("summarize(nil) is not zero")
	}
}

func TestSummarizeRanksFailuresAboveSuccesses(t *testing.T) {
	s := secs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0.5)
	s[20].failed = true // fast, but failed: misses every limit
	got := summarize(s)
	if got.tail != 11 {
		t.Fatalf("tail = %v, want 11 (the failure ranks last)", got.tail)
	}
	if r := failRatio(s); math.Abs(r-1.0/21) > 1e-12 {
		t.Fatalf("failRatio = %v, want 1/21", r)
	}
	for i := 0; i < 11; i++ {
		s[i].failed = true
	}
	// Ranks 1-9 are the successes 12..20, then the failures in order of
	// their time: 0.5, 1, 2, ... The median (rank 11) is a failure.
	if got := summarize(s); got.p50 != 1 {
		t.Fatalf("p50 with 12 of 21 failed = %v, want 1 (a failed operation's time)", got.p50)
	}
}

func TestFairnessError(t *testing.T) {
	for _, c := range []struct{ hi, lo, want, err float64 }{
		{3, 1, 0.75, 0},
		{1, 1, 0.75, 0.25},
		{10, 0, 0.75, 0.25},
		{0, 4, 0.75, 0.75},
		{0, 0, 0.75, 0.75},
	} {
		if got := fairnessError(c.hi, c.lo, c.want); math.Abs(got-c.err) > 1e-12 {
			t.Errorf("fairnessError(%v, %v, %v) = %v, want %v", c.hi, c.lo, c.want, got, c.err)
		}
	}
}

func TestCapOvershoot(t *testing.T) {
	served := []int64{20 * mib, 30 * mib, 0}
	if got := capOvershoot(served, 10, 2*mib); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("capOvershoot = %v, want 0.5", got)
	}
	if got := capOvershoot([]int64{10 * mib}, 10, 2*mib); got != 0 {
		t.Fatalf("capOvershoot under the cap = %v, want 0", got)
	}
	if got := capOvershoot(served, 10, 0); got != 0 {
		t.Fatalf("capOvershoot unshaped = %v, want 0", got)
	}
}

func TestOpenLoopGapsStayInRangeAndOfferSteadyLoad(t *testing.T) {
	const n = 40
	lo, hi, m := 200*time.Millisecond, 3*time.Second, 2*time.Second
	want := truncatedMean(m, lo, hi)
	many := openLoopGaps(rand.New(rand.NewSource(1)), 10000, m, lo, hi)
	var total time.Duration
	for _, g := range many {
		total += g
	}
	if got := total / time.Duration(len(many)); math.Abs(got.Seconds()/want.Seconds()-1) > 0.01 {
		t.Fatalf("mean gap %v, truncated exponential mean %v", got, want)
	}
	for seed := int64(1); seed <= 5; seed++ {
		gaps := openLoopGaps(rand.New(rand.NewSource(seed)), n, m, lo, hi)
		var sum time.Duration
		for _, g := range gaps {
			if g < lo || g > hi {
				t.Fatalf("seed %d: gap %v outside [%v, %v]", seed, g, lo, hi)
			}
			sum += g
		}
		if d := math.Abs(sum.Seconds()/(n*want.Seconds()) - 1); d > 0.03 {
			t.Fatalf("seed %d: offered load %v is %.1f%% from n*mean", seed, sum, 100*d)
		}
		if again := openLoopGaps(rand.New(rand.NewSource(seed)), n, m, lo, hi); !reflect.DeepEqual(gaps, again) {
			t.Fatalf("seed %d: gaps differ between two draws", seed)
		}
	}
}

// sleeper is an operation that takes d whatever its context says, and
// counts how often it ran.
func sleeper(d time.Duration, runs *atomic.Int64) opFunc {
	return func(ctx context.Context, seq int) (func() error, error) {
		runs.Add(1)
		time.Sleep(d)
		return nil, nil
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	var runs atomic.Int64
	// Two arrivals 10 ms apart on one slot: the second waits for the
	// first, and that wait is part of its latency.
	res := openLoop(context.Background(), time.Now(), []time.Duration{0, 10 * time.Millisecond}, 1, time.Second, sleeper(40*time.Millisecond, &runs))
	if len(res.samples) != 2 || len(res.lags) != 2 || res.inflightMax != 1 {
		t.Fatalf("got %d samples, %d lags, inflight max %d", len(res.samples), len(res.lags), res.inflightMax)
	}
	if lat := res.samples[1].latency; lat < 65*time.Millisecond || res.samples[1].failed {
		t.Fatalf("second arrival: latency %v failed %v, want about 70 ms of wait plus work", lat, res.samples[1].failed)
	}
	if p50, max := lateness(res.lags); p50 < 0 || max > 0.05 {
		t.Fatalf("generator lateness p50 %v max %v", p50, max)
	}
}

func TestOpenLoopFailsLateOperations(t *testing.T) {
	var runs atomic.Int64
	// One slot, 80 ms operations, 100 ms deadlines, arrivals at 0, 10
	// and 20 ms: the first succeeds, the second finishes past its
	// deadline, and the third's deadline passes while it queues, so it
	// is never issued.
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	res := openLoop(context.Background(), time.Now(), dues, 1, 100*time.Millisecond, sleeper(80*time.Millisecond, &runs))
	if failed := failRatio(res.samples) * 3; len(res.samples) != 3 || math.Round(failed) != 2 {
		t.Fatalf("%d samples, %.0f failed; want 3 and 2", len(res.samples), failed)
	}
	if runs.Load() != 2 {
		t.Fatalf("operation ran %d times, want 2 (the expired arrival is not issued)", runs.Load())
	}
}

func TestClosedLoopWindowCut(t *testing.T) {
	// 80 ms operations in a 200 ms window: two complete, the third is
	// cut short by the window end and is not counted. The operations
	// see no context deadline; the cut is a cancellation.
	var runs atomic.Int64
	slow := func(ctx context.Context, seq int) (func() error, error) {
		runs.Add(1)
		if _, ok := ctx.Deadline(); ok {
			return nil, errors.New("operation was given a deadline")
		}
		select {
		case <-time.After(80 * time.Millisecond):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	res := closedLoop(context.Background(), time.Now().Add(200*time.Millisecond), slow)
	if len(res.samples) != 2 || runs.Load() != 3 {
		t.Fatalf("got %d samples of %d runs, want 2 of 3 (the third is cut by the window)", len(res.samples), runs.Load())
	}
	for _, s := range res.samples {
		if s.failed {
			t.Fatal("an operation that finished inside the window failed")
		}
	}
	corrupt := func(ctx context.Context, seq int) (func() error, error) {
		return func() error { return errCorrupt }, nil
	}
	res = closedLoop(context.Background(), time.Now().Add(20*time.Millisecond), corrupt)
	if res.corrupt == 0 || res.corrupt != len(res.samples) {
		t.Fatalf("corrupt = %d of %d samples", res.corrupt, len(res.samples))
	}
}

// smoke shrinks a workload so that it runs in seconds.
func smoke(name string) spec {
	sp := workloads[name]
	sp.fileBytes = 1 * mib
	if sp.shareBytes > 0 {
		sp.fileBytes, sp.shareBytes = 2*mib, 1*mib
	}
	return sp
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots peers on loopback")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			sp := smoke(name)
			rep, err := runUntraced(context.Background(), sp, 7, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, gatedEndToEnd)

			rep, err = runTraced(context.Background(), sp, 7, 2*time.Second, t.TempDir(), newStamp("test", 7))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
		})
	}
}

func checkReport(t *testing.T, rep *report, names []string) {
	t.Helper()
	res := rep.result()
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	for _, n := range names {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("metric %s missing from the result", n)
		}
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(names))
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	check := func(section string, got []entry, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the command reports %d", section, len(got), len(want))
			return
		}
		for i, e := range got {
			d := defs[want[i]]
			if e.Name != want[i] || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s[%d] = %+v, the command reports %s in %s, %s is better", section, i, e, want[i], d.unit, d.better)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, gatedEndToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}
