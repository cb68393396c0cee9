package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Runner executes a Schedule against a live daemon.
type Runner struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// Client is the HTTP client to use; nil means a dedicated client
	// with a connection pool sized to the stream count.
	Client *http.Client
	// MaxShedRetries bounds how many times a shed (429) or — with
	// RetryTransient — transiently failed ingest batch is retried
	// before its records are declared dropped. 0 means 64. Every
	// attempt is counted: retries show up in the request totals and the
	// shed accounting, never silently.
	MaxShedRetries int
	// RetryTransient additionally retries ingest batches that fail at
	// the transport layer or with 502/503/504 — cluster mode, where a
	// node restart or partition makes such failures expected and the
	// store's duplicate rejection makes re-sends benign. Off (the
	// strict single-node default), any transport error is a recorded
	// failure.
	RetryTransient bool
	// Seed seeds the per-stream retry jitter (0 = 1). Two runs with the
	// same seed back off identically given identical server behavior.
	Seed uint64

	// progress counts records accepted so far, readable mid-run by the
	// chaos harness to trigger faults at load fractions.
	progress atomic.Uint64
}

// AcceptedSoFar reports records accepted across all streams so far;
// safe to call while Run is in flight.
func (r *Runner) AcceptedSoFar() uint64 { return r.progress.Load() }

// WatchObs is one successful watchlist response: which model version
// answered, and when the request started. Conformance checks that the
// version is at least as new as every reload that finished before the
// request began — the observable half of "a hot swap never serves a
// mixed or stale batch".
type WatchObs struct {
	Version int
	Start   time.Time
}

// ReloadObs is one successful hot reload: the new version and when the
// swap was confirmed complete.
type ReloadObs struct {
	Version int
	Done    time.Time
}

// Result is everything measured and tracked during a run, sufficient
// for both the benchmark report and the conformance verdict.
type Result struct {
	Sched *Schedule
	Wall  time.Duration

	// Hists holds one latency histogram per op kind (keyed by handler
	// name), merged across streams.
	Hists map[string]*Histogram
	// Codes counts responses by handler name and status code; transport
	// failures count under code 0.
	Codes map[string]map[int]uint64
	// Requests is the total attempts sent, including shed retries and
	// the harness's own baseline/verification requests.
	Requests uint64

	// Record-level accounting, from response bodies.
	AcceptedRecords uint64
	RejectedRecords uint64
	// DroppedRecords counts records in batches still shed after the
	// retry budget: offered but never accepted nor rejected.
	DroppedRecords uint64
	// ShedRetries counts ingest-batch re-sends after a 429, and
	// TransientRetries after a transport error or 502/503/504 (cluster
	// mode). Both surface in the conformance report so retried load is
	// visible, never silently folded into the totals.
	ShedRetries      uint64
	TransientRetries uint64

	Watchlists []WatchObs
	Reloads    []ReloadObs

	// BaselineVersion is the model version before load; baseline and
	// final metric scrapes bracket the run for delta accounting.
	BaselineVersion int
	BaselineMetrics map[string]float64
	FinalVersion    int
	FinalMetrics    map[string]float64

	// TransportErrors holds up to a handful of transport-level failure
	// messages for diagnostics.
	TransportErrors []string
}

// streamState is the per-stream (single-goroutine) measurement state,
// merged after all streams join.
type streamState struct {
	hists    map[OpKind]*Histogram
	codes    map[OpKind]map[int]uint64
	requests uint64

	accepted uint64
	rejected uint64
	dropped  uint64

	shedRetries      uint64
	transientRetries uint64

	rng *rand.Rand

	watch    []WatchObs
	reloads  []ReloadObs
	errs     []string
	lastVers int
}

func newStreamState(seed, stream uint64) *streamState {
	if seed == 0 {
		seed = 1
	}
	return &streamState{
		hists: make(map[OpKind]*Histogram),
		codes: make(map[OpKind]map[int]uint64),
		rng:   rand.New(rand.NewPCG(seed, stream)),
	}
}

func (st *streamState) record(kind OpKind, code int, d time.Duration) {
	h := st.hists[kind]
	if h == nil {
		h = &Histogram{}
		st.hists[kind] = h
	}
	h.RecordDuration(d)
	byCode := st.codes[kind]
	if byCode == nil {
		byCode = make(map[int]uint64)
		st.codes[kind] = byCode
	}
	byCode[code]++
	st.requests++
}

const maxTransportErrorDetail = 8

func (st *streamState) fail(err error) {
	if len(st.errs) < maxTransportErrorDetail {
		st.errs = append(st.errs, err.Error())
	}
}

// ingestReply and versionReply are the response-body slices the client
// cares about; extra fields are ignored.
type ingestReply struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}
type versionReply struct {
	Version      int `json:"version"`
	ModelVersion int `json:"model_version"`
}

// do fires one request and returns status code, body, latency, and the
// server's Retry-After hint (0 when absent). Latency runs to the end of
// the response body from due, the time the request was scheduled to go
// out, or from the send when due is zero. A transport failure returns
// code 0 and a nil body.
func (r *Runner) do(ctx context.Context, op *Op, due time.Time) (int, []byte, time.Duration, time.Duration, error) {
	var rd io.Reader
	if op.Body != nil {
		rd = bytes.NewReader(op.Body)
	}
	req, err := http.NewRequestWithContext(ctx, op.Kind.Method(), r.BaseURL+op.Path, rd)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	if op.Body != nil {
		req.Header.Set("Content-Type", op.Kind.ContentType())
	}
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	resp, err := r.Client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), 0, err
	}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return resp.StatusCode, nil, dur, retryAfter, err
	}
	return resp.StatusCode, body, dur, retryAfter, nil
}

// parseRetryAfter interprets the delay-seconds form of Retry-After;
// the HTTP-date form (which this fleet never sends) reads as absent.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

const (
	defaultShedRetries = 64
	retryBackoffBase   = 2 * time.Millisecond
	retryBackoffMax    = time.Second
)

// retryDelay is the wait before retry attempt n (0-based): a capped
// exponential with seeded jitter in [d/2, d], floored by the server's
// Retry-After hint when one was sent. The server's hint wins even past
// the cap — it knows its own shed horizon better than the client does.
func retryDelay(rng *rand.Rand, attempt int, retryAfter time.Duration) time.Duration {
	d := retryBackoffMax
	if attempt < 20 {
		if exp := retryBackoffBase << uint(attempt); exp < d {
			d = exp
		}
	}
	d = d/2 + time.Duration(rng.Int64N(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// sleepRetry waits out a backoff, reporting false if the run was
// canceled first.
func sleepRetry(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// execute runs one op on a stream, including the retry loop for ingest
// batches, and folds the outcome into the stream state. Sheds (429) are
// always retried with Retry-After-aware backoff; transport errors and
// 502/503/504 are retried too when RetryTransient is set. The first
// attempt's latency is timed from due (zero: from its send); a retry,
// which goes out when its backoff ends, is timed from its own send.
func (r *Runner) execute(ctx context.Context, st *streamState, op *Op, due time.Time) {
	retries := r.MaxShedRetries
	if retries <= 0 {
		retries = defaultShedRetries
	}
	for attempt := 0; ; attempt++ {
		code, body, dur, retryAfter, err := r.do(ctx, op, due)
		due = time.Time{}
		st.record(op.Kind, code, dur)
		if err != nil {
			if r.RetryTransient && op.Kind.ingest() && attempt < retries {
				st.transientRetries++
				if !sleepRetry(ctx, retryDelay(st.rng, attempt, 0)) {
					st.dropped += uint64(op.Records)
					return
				}
				continue
			}
			st.fail(fmt.Errorf("%s %s: %w", op.Kind, op.Path, err))
			return
		}
		shed := code == http.StatusTooManyRequests
		transient := r.RetryTransient && (code == http.StatusBadGateway ||
			code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout)
		if (shed || transient) && op.Kind.ingest() && attempt < retries {
			if shed {
				st.shedRetries++
			} else {
				st.transientRetries++
			}
			if !sleepRetry(ctx, retryDelay(st.rng, attempt, retryAfter)) {
				st.dropped += uint64(op.Records)
				return
			}
			continue
		}
		r.observe(st, op, code, body)
		return
	}
}

// observe folds a final (non-retried) response into the stream state.
func (r *Runner) observe(st *streamState, op *Op, code int, body []byte) {
	switch op.Kind {
	case OpIngestBatch, OpIngestBin:
		if code == http.StatusTooManyRequests {
			st.dropped += uint64(op.Records)
			return
		}
		var rep ingestReply
		if json.Unmarshal(body, &rep) == nil {
			st.accepted += uint64(rep.Accepted)
			st.rejected += uint64(rep.Rejected)
			r.progress.Add(uint64(rep.Accepted))
			if miss := op.Records - rep.Accepted - rep.Rejected; miss > 0 {
				st.dropped += uint64(miss)
			}
		} else {
			st.dropped += uint64(op.Records)
		}
	case OpWatchlist:
		if code == http.StatusOK {
			var rep versionReply
			if json.Unmarshal(body, &rep) == nil {
				// Start is stamped by the caller; see runStream.
				st.watch = append(st.watch, WatchObs{Version: rep.ModelVersion})
			}
		}
	case OpReload:
		if code == http.StatusOK {
			var rep versionReply
			if json.Unmarshal(body, &rep) == nil {
				st.reloads = append(st.reloads, ReloadObs{Version: rep.Version, Done: time.Now()})
			}
		}
	case OpModel:
		if code == http.StatusOK {
			var rep versionReply
			if json.Unmarshal(body, &rep) == nil {
				st.lastVers = rep.Version
			}
		}
	}
}

// runStream drives one stream to completion: closed-loop back-to-back,
// or open-loop honoring each op's arrival offset. Open-loop latencies
// are timed from each op's due time, not its send: a stream is
// sequential, so a request queued behind a stalled one goes out late,
// and timing it from the send would hide the stall from it.
func (r *Runner) runStream(ctx context.Context, st *streamState, stream *Stream, start time.Time, open bool) {
	for i := range stream.Ops {
		if ctx.Err() != nil {
			for j := i; j < len(stream.Ops); j++ {
				st.dropped += uint64(stream.Ops[j].Records)
			}
			return
		}
		op := &stream.Ops[i]
		var due time.Time
		if open {
			due = start.Add(op.At)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			}
		}
		watchStart := time.Now()
		before := len(st.watch)
		r.execute(ctx, st, op, due)
		// Stamp the request start on any watchlist observation the op
		// produced (execute can't know it before sending).
		for j := before; j < len(st.watch); j++ {
			st.watch[j].Start = watchStart
		}
	}
}

// Run executes the schedule: a baseline scrape and model read, then all
// streams concurrently, leaving the Result ready for Verify. Every
// request the harness itself makes is counted in the same accounting as
// scheduled load, so the daemon's request counters remain exactly
// explainable.
func (r *Runner) Run(ctx context.Context, sched *Schedule) (*Result, error) {
	if r.Client == nil {
		r.Client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        sched.Cfg.Streams + 2,
				MaxIdleConnsPerHost: sched.Cfg.Streams + 2,
			},
		}
	}
	res := &Result{
		Sched: sched,
		Hists: make(map[string]*Histogram),
		Codes: make(map[string]map[int]uint64),
	}

	harness := newStreamState(r.Seed, ^uint64(0))
	base, err := r.scrapeMetrics(ctx, harness)
	if err != nil {
		return nil, fmt.Errorf("loadgen: baseline metrics scrape: %w", err)
	}
	res.BaselineMetrics = base
	v0, err := r.readVersion(ctx, harness)
	if err != nil {
		return nil, fmt.Errorf("loadgen: baseline model read: %w", err)
	}
	res.BaselineVersion = v0

	states := make([]*streamState, len(sched.Streams))
	start := time.Now()
	var wg sync.WaitGroup
	for s := range sched.Streams {
		states[s] = newStreamState(r.Seed, uint64(s))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r.runStream(ctx, states[s], &sched.Streams[s], start, sched.Cfg.Mode == ModeOpen)
		}(s)
	}
	wg.Wait()
	res.Wall = time.Since(start)

	res.merge(harness)
	for _, st := range states {
		res.merge(st)
	}
	return res, ctx.Err()
}

// merge folds one stream's state into the result.
func (res *Result) merge(st *streamState) {
	for kind, h := range st.hists {
		name := kind.String()
		dst := res.Hists[name]
		if dst == nil {
			dst = &Histogram{}
			res.Hists[name] = dst
		}
		dst.Merge(h)
	}
	for kind, byCode := range st.codes {
		name := kind.String()
		dst := res.Codes[name]
		if dst == nil {
			dst = make(map[int]uint64)
			res.Codes[name] = dst
		}
		for code, n := range byCode {
			dst[code] += n
		}
	}
	res.Requests += st.requests
	res.AcceptedRecords += st.accepted
	res.RejectedRecords += st.rejected
	res.DroppedRecords += st.dropped
	res.ShedRetries += st.shedRetries
	res.TransientRetries += st.transientRetries
	res.Watchlists = append(res.Watchlists, st.watch...)
	res.Reloads = append(res.Reloads, st.reloads...)
	res.TransportErrors = append(res.TransportErrors, st.errs...)
}

// scrapeMetrics fetches and parses /metrics, counting the request.
func (r *Runner) scrapeMetrics(ctx context.Context, st *streamState) (map[string]float64, error) {
	op := Op{Kind: OpMetrics, Path: "/metrics"}
	code, body, dur, _, err := r.do(ctx, &op, time.Time{})
	st.record(OpMetrics, code, dur)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics returned %d", code)
	}
	return ParseMetrics(string(body))
}

// readVersion fetches the serving model version, counting the request.
func (r *Runner) readVersion(ctx context.Context, st *streamState) (int, error) {
	op := Op{Kind: OpModel, Path: "/v1/model"}
	code, body, dur, _, err := r.do(ctx, &op, time.Time{})
	st.record(OpModel, code, dur)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("model returned %d", code)
	}
	var rep versionReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, err
	}
	return rep.Version, nil
}
