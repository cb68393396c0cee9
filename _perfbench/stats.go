package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything: a p99 from 150 samples rests on one or two
// observations and moves with every run.
const minBeyond = 10

// percentileLadder lists the percentiles a timing may be reported at,
// lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples. The epsilon keeps 99.9% of 10000 at 9990 despite the
// rounding of 99.9/100.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// highestSupported returns the highest ladder percentile that keeps at
// least minBeyond samples above it, and false when even the median
// does not (fewer than 20 samples).
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// timing is one reported latency: the value at a percentile, the
// sample count it was taken from, and whether the count supports it.
// A timing over the steadiest windows of a run was taken from the
// windows Kept names; PerWindow holds every window's own percentile.
type timing struct {
	P         float64
	Value     float64 // milliseconds; +Inf when it falls on a failed request
	Samples   int
	Supported bool
	PerWindow []float64
	Kept      []int
}

// percentileMs takes the nearest-rank p-th percentile of latencies in
// milliseconds. Failed requests are passed as negative durations: they
// count as missing every latency limit, so they sort above every
// success.
func percentileMs(lat []time.Duration, p float64) timing {
	t := timing{P: p, Samples: len(lat), Supported: len(lat) > 0 && beyond(len(lat), p) >= minBeyond}
	if len(lat) == 0 {
		t.Value = math.NaN()
		return t
	}
	s := make([]float64, len(lat))
	for i, d := range lat {
		if d < 0 {
			s[i] = math.Inf(1)
		} else {
			s[i] = float64(d) / float64(time.Millisecond)
		}
	}
	sort.Float64s(s)
	t.Value = s[rank(len(s), p)-1]
	return t
}

// steadyPercentileMs sets aside the drop windows of a run whose median
// latency is highest, pools the rest and takes their p-th percentile.
// On a host shared with other tenants, a burst of contention slows
// every request in the seconds it lasts; ranking windows by their
// median, not by the tail being measured, finds those seconds without
// choosing the tail.
func steadyPercentileMs(windows [][]time.Duration, drop int, p float64) timing {
	meds := make([]float64, len(windows))
	own := make([]float64, len(windows))
	order := make([]int, len(windows))
	for i, w := range windows {
		meds[i] = percentileMs(w, 50).Value
		own[i] = percentileMs(w, p).Value
		order[i] = i
	}
	// A window with no samples or a failure at its median sorts last.
	key := func(i int) float64 {
		if math.IsNaN(meds[i]) {
			return math.Inf(1)
		}
		return meds[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
	kept := max(len(windows)-drop, 1)
	var pool []time.Duration
	for _, i := range order[:kept] {
		pool = append(pool, windows[i]...)
	}
	t := percentileMs(pool, p)
	t.PerWindow = own
	t.Kept = append([]int(nil), order[:kept]...)
	sort.Ints(t.Kept)
	return t
}

// median returns the middle value (mean of the middle two for even
// counts), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in milliseconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return median(xs)
}
