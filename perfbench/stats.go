package main

// Arithmetic behind the end-to-end metrics, kept free of I/O so the
// unit tests can drive it with synthetic inputs.

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"time"
)

// errCorrupt marks an operation whose output failed a correctness
// check: wrong fetched bytes, or a share the peers do not hold.
var errCorrupt = errors.New("correctness check failed")

// minTailBeyond is how many samples must lie beyond the reported tail.
const minTailBeyond = 10

// sample is one finished operation.
type sample struct {
	latency time.Duration
	failed  bool
}

// latencySummary is a median and a tail of one operation kind.
type latencySummary struct {
	n          int
	p50, tail  float64 // seconds
	tailPct    float64 // percentile the tail is taken at
	tailBeyond int     // samples strictly beyond the tail
}

// summarize orders the samples with every failed operation ranked
// above every successful one, since a failure misses any latency limit,
// and reads the median and the tail from that order. The value read at
// a failed rank is the time the operation took to fail. The tail is
// the highest percentile that leaves at least minTailBeyond samples
// beyond it; with fewer than 2*minTailBeyond samples no percentile
// above the median qualifies and the tail is the median.
func summarize(samples []sample) latencySummary {
	n := len(samples)
	if n == 0 {
		return latencySummary{}
	}
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].failed != s[j].failed {
			return !s[i].failed
		}
		return s[i].latency < s[j].latency
	})
	at := func(rank int) float64 { return s[rank-1].latency.Seconds() } // rank is 1-based
	p50Rank := (n + 1) / 2
	tailRank := n - minTailBeyond
	if tailRank < p50Rank {
		tailRank = p50Rank
	}
	return latencySummary{
		n:          n,
		p50:        at(p50Rank),
		tail:       at(tailRank),
		tailPct:    100 * float64(tailRank) / float64(n),
		tailBeyond: n - tailRank,
	}
}

// failRatio is failed ÷ attempted, 0 when nothing was attempted.
func failRatio(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	failed := 0
	for _, s := range samples {
		if s.failed {
			failed++
		}
	}
	return float64(failed) / float64(len(samples))
}

// fairnessError is |hi ÷ (hi + lo) − want|: how far the high-standing
// user's observed share of the goodput is from the Eq. (2) share.
func fairnessError(hi, lo, want float64) float64 {
	if hi+lo <= 0 {
		return want
	}
	return math.Abs(hi/(hi+lo) - want)
}

// capOvershoot is the largest amount by which any peer's served rate
// over the window exceeds its configured cap, as a share of the cap,
// floored at zero.
func capOvershoot(served []int64, windowSec, capBps float64) float64 {
	if windowSec <= 0 || capBps <= 0 {
		return 0
	}
	var worst float64
	for _, b := range served {
		if over := float64(b)/windowSec/capBps - 1; over > worst {
			worst = over
		}
	}
	return worst
}

// openLoopGaps returns n inter-arrival gaps drawn from the exponential
// distribution with the given mean, truncated to [lo, hi]. The draws
// are stratified: gap i comes from the i-th of n equal-probability
// slices of the truncated distribution, with a seeded position inside
// its slice, and the slices are visited in seeded order. Every seed
// thus offers the same load and the same spread of idle gaps, and only
// their order and exact values change.
func openLoopGaps(rng *rand.Rand, n int, mean, lo, hi time.Duration) []time.Duration {
	cdf := func(x time.Duration) float64 { return 1 - math.Exp(-x.Seconds()/mean.Seconds()) }
	inv := func(u float64) time.Duration {
		return time.Duration(-mean.Seconds() * math.Log(1-u) * float64(time.Second))
	}
	flo, fhi := cdf(lo), cdf(hi)
	gaps := make([]time.Duration, n)
	for i, slot := range rng.Perm(n) {
		u := flo + (fhi-flo)*(float64(slot)+rng.Float64())/float64(n)
		gaps[i] = inv(u)
	}
	return gaps
}

// truncatedMean is the mean of the exponential distribution with the
// given mean truncated to [lo, hi].
func truncatedMean(mean, lo, hi time.Duration) time.Duration {
	m, a, b := mean.Seconds(), lo.Seconds(), hi.Seconds()
	ea, eb := math.Exp(-a/m), math.Exp(-b/m)
	v := ((a+m)*ea - (b+m)*eb) / (ea - eb)
	return time.Duration(v * float64(time.Second))
}

// lateness summarizes how late the generator issued each arrival
// relative to its due time: the median and the largest, in seconds.
func lateness(lags []time.Duration) (p50, max float64) {
	if len(lags) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lags...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2].Seconds(), s[len(s)-1].Seconds()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// median returns the median of xs (the mean of the middle two for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
