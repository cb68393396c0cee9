package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallingServer answers at once except for its stallAt-th request,
// which it holds for stall.
func stallingServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"version":1}`)) //nolint:errcheck
	}))
}

// modelStream is n model reads due gap apart.
func modelStream(n int, gap time.Duration) *Stream {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpModel, Path: "/v1/model", At: time.Duration(i) * gap}
	}
	return &Stream{Ops: ops}
}

// runStallStream drives one stream of 8 model reads, 20 ms apart,
// against a server that holds the third for 300 ms, and returns the
// stream's latency histogram.
func runStallStream(t *testing.T, open bool) (*Histogram, time.Duration) {
	t.Helper()
	const gap, stall = 20 * time.Millisecond, 300 * time.Millisecond
	srv := stallingServer(3, stall)
	defer srv.Close()
	r := &Runner{BaseURL: srv.URL, Client: srv.Client()}
	st := newStreamState(1, 0)
	r.runStream(context.Background(), st, modelStream(8, gap), time.Now(), open)
	h := st.hists[OpModel]
	if h == nil || h.Count() != 8 || st.codes[OpModel][http.StatusOK] != 8 {
		t.Fatalf("got %v samples, codes %v; want 8 answered", h, st.codes[OpModel])
	}
	return h, stall
}

// In open loop a stall is charged to every request queued behind it:
// request i (due at i*gap) cannot go out before the stalled request 2
// returns at about 2*gap+stall, so its latency from due time is at
// least that wait. Timed from its send it would look instant.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	h, stall := runStallStream(t, true)
	// Requests 2..7 each waited 160..260 ms or more; only 0 and 1
	// were fast, so the median sits well inside the stall.
	if p50 := time.Duration(h.Quantile(0.5)); p50 < stall/2 {
		t.Fatalf("open-loop p50 = %v; the %v stall should dominate the requests queued behind it", p50, stall)
	}
	if mn := time.Duration(h.Min()); mn > 50*time.Millisecond {
		t.Fatalf("fastest request took %v; requests before the stall should be quick", mn)
	}
}

// In closed loop each request is due when the previous reply lands, so
// the stall counts once.
func TestClosedLoopCountsStallOnce(t *testing.T) {
	h, stall := runStallStream(t, false)
	if p50 := time.Duration(h.Quantile(0.5)); p50 > 50*time.Millisecond {
		t.Fatalf("closed-loop p50 = %v; only one request should carry the stall", p50)
	}
	if mx := time.Duration(h.Max()); mx < stall {
		t.Fatalf("closed-loop max = %v, want the %v stall", mx, stall)
	}
}
