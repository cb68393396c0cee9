package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ssdfail/internal/loadgen"
)

// stallingServer answers at once except for its stallAt-th request,
// which it holds for stall.
func stallingServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
}

func modelOps(n int, gap time.Duration) []loadgen.Op {
	ops := make([]loadgen.Op, n)
	for i := range ops {
		ops[i] = loadgen.Op{Kind: loadgen.OpModel, Path: "/v1/model", At: time.Duration(i) * gap}
	}
	return ops
}

// An open lane must charge a stall to every request queued behind it:
// timed from when they were sent, the requests after the stall would
// look instant.
func TestOpenLaneTimesFromDueTime(t *testing.T) {
	const gap, stall = 20 * time.Millisecond, 300 * time.Millisecond
	srv := stallingServer(3, stall)
	defer srv.Close()
	c := newClient(srv.URL, nil)
	defer c.close()
	out := c.runLanes(context.Background(), []lane{{Ops: modelOps(8, gap), Open: true}})
	if len(out.Samples) != 8 || out.failed() != 0 {
		t.Fatalf("got %d samples, %d failed", len(out.Samples), out.failed())
	}
	for i := 3; i < 8; i++ {
		s := &out.Samples[i]
		// Request i was due at i*gap but could only go out once the
		// stalled request 2 (due at 2*gap) returned.
		wait := 2*gap + stall - time.Duration(i)*gap
		if wait <= 0 {
			continue
		}
		if got := s.Sent.Sub(s.Due); got < wait-5*time.Millisecond {
			t.Errorf("request %d: sent %v after its due time, want at least %v", i, got, wait)
		}
		if s.latency() < wait {
			t.Errorf("request %d: latency %v, want at least the %v it queued behind the stall", i, s.latency(), wait)
		}
		// The wait was the server's doing: the sender itself was prompt.
		if s.late() > 20*time.Millisecond {
			t.Errorf("request %d: sender lateness %v, want it near zero", i, s.late())
		}
		if sent := s.Done.Sub(s.Sent); sent > 50*time.Millisecond {
			t.Errorf("request %d: %v from send, want it fast once sent", i, sent)
		}
	}
	p50 := percentileMs(out.latencies(loadgen.OpModel), 50)
	if p50.Value < float64(stall/time.Millisecond)/2 {
		t.Errorf("p50 = %.1f ms; the stall should dominate the median of requests behind it", p50.Value)
	}
}

// A closed lane has no schedule: each request is due when the previous
// reply lands, so a stall counts once.
func TestClosedLaneCountsStallOnce(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := stallingServer(2, stall)
	defer srv.Close()
	c := newClient(srv.URL, nil)
	defer c.close()
	out := c.runLanes(context.Background(), []lane{{Ops: modelOps(6, 0)}})
	slow := 0
	for i := range out.Samples {
		if out.Samples[i].latency() >= stall {
			slow++
		}
		if l := out.Samples[i].late(); l > 20*time.Millisecond {
			t.Errorf("closed request %d sent %v after its due time", i, l)
		}
	}
	if slow != 1 {
		t.Errorf("%d requests saw the stall, want exactly 1", slow)
	}
}

func TestFailedRequestsAreCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := newClient(srv.URL, nil)
	defer c.close()
	ops := []loadgen.Op{{Kind: loadgen.OpIngestBin, Path: "/v1/ingest/bin", Body: []byte("x"), Records: 5}}
	out := c.runLanes(context.Background(), []lane{{Ops: ops}})
	if out.failed() != 1 || out.Dropped != 5 || out.Codes["ingest_bin"][http.StatusTooManyRequests] != 1 {
		t.Errorf("shed batch: failed %d, dropped %d, codes %v", out.failed(), out.Dropped, out.Codes)
	}
	if l := out.Samples[0].latency(); l >= 0 {
		t.Errorf("failed request latency %v, want the failure marker", l)
	}
}

// Requests fall into windows by their due time from the start of the
// lanes, whatever the reply time; only the named kinds are kept.
func TestWindowLatenciesSplitByDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	o := &outcome{Start: start}
	for i := 0; i < 12; i++ {
		due := start.Add(time.Duration(i) * 250 * time.Millisecond) // 0 .. 2.75 s
		o.Samples = append(o.Samples, sample{Kind: loadgen.OpIngestBin, Due: due, Done: due.Add(time.Second)})
	}
	o.Samples = append(o.Samples, sample{Kind: loadgen.OpWatchlist, Due: start, Done: start})
	// A request due past the span (a late schedule) joins the last window.
	late := start.Add(4 * time.Second)
	o.Samples = append(o.Samples, sample{Kind: loadgen.OpIngestBin, Due: late, Done: late})
	w := o.windowLatencies(3, 3*time.Second, loadgen.OpIngestBin)
	if len(w) != 3 || len(w[0]) != 4 || len(w[1]) != 4 || len(w[2]) != 5 {
		t.Fatalf("window sizes %d/%d/%d of %d windows, want 4/4/5 of 3", len(w[0]), len(w[1]), len(w[2]), len(w))
	}
	if w[0][0] != time.Second {
		t.Errorf("latency %v, want 1s from the due time", w[0][0])
	}
}
