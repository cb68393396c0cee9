package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileReportsCountAndSupport(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond // 1..100 ms
	}
	p90 := percentileMs(lat, 90)
	if p90.Value != 90 || p90.Samples != 100 || !p90.Supported {
		t.Errorf("p90 of 1..100 ms = %+v, want 90 ms from 100 samples, supported", p90)
	}
	if n := beyond(100, 90); n != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", n)
	}
	p99 := percentileMs(lat, 99)
	if p99.Value != 99 || p99.Supported {
		t.Errorf("p99 of 100 samples = %+v, want 99 ms and unsupported", p99)
	}
	if p := percentileMs(lat[:99], 90); p.Supported {
		t.Errorf("p90 of 99 samples claims support: %+v", p)
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	lat := make([]time.Duration, 20)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	lat[3], lat[7] = -1, -1 // failed
	if p := percentileMs(lat, 50); p.Value != 1 {
		t.Errorf("p50 = %v, want 1 ms", p.Value)
	}
	if p := percentileMs(lat, 95); !math.IsInf(p.Value, 1) {
		t.Errorf("p95 = %v, want +Inf: the two failures rank above every success", p.Value)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median of nothing = %v, want NaN", m)
	}
}

// Setting aside the windows with the highest median drops a burst of
// contention that slows every request in its window, and the percentile
// is taken over the pooled samples of the rest, with their count.
func TestSteadyPercentileDropsSlowWindows(t *testing.T) {
	window := func(base time.Duration) []time.Duration {
		w := make([]time.Duration, 50)
		for i := range w {
			w[i] = base + time.Duration(i)*time.Millisecond // base .. base+49 ms
		}
		return w
	}
	windows := [][]time.Duration{window(0), window(500 * time.Millisecond), window(0), window(0)}
	got := steadyPercentileMs(windows, 1, 90)
	if got.Value != 44 || got.Samples != 150 || !got.Supported || !slices.Equal(got.Kept, []int{0, 2, 3}) {
		t.Errorf("p90 without the slow window = %+v, want 44 ms from 150 samples of windows 0, 2 and 3, supported", got)
	}
	if !slices.Equal(got.PerWindow, []float64{44, 544, 44, 44}) {
		t.Errorf("per-window p90 = %v, want 44, 544, 44, 44 ms", got.PerWindow)
	}
	if all := steadyPercentileMs(windows, 0, 90); all.Value != 529 || all.Samples != 200 {
		t.Errorf("p90 over every window = %+v, want 529 ms from 200 samples", all)
	}
	// A window whose median request failed is slower than any other.
	failed := window(0)
	for i := range failed {
		failed[i] = -1
	}
	windows[1] = failed
	if got := steadyPercentileMs(windows, 1, 90); got.Value != 44 {
		t.Errorf("p90 without the failed window = %v, want 44 ms", got.Value)
	}
}
