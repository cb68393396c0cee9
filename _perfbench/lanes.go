package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ssdfail/internal/loadgen"
)

// sample is one request as the generator saw it. Every latency is taken
// from Due, the moment the request should have gone out: for an open
// lane its scheduled arrival, for a closed lane the moment the previous
// reply landed. A stalled server therefore charges its stall to every
// request queued behind it, not only to the one it was serving.
type sample struct {
	Kind    loadgen.OpKind
	Records int
	Code    int  // 0 on a transport error
	Failed  bool // transport error, 429 or 5xx
	Due     time.Time
	Ready   time.Time // the later of Due and the previous reply on the lane
	Sent    time.Time
	Done    time.Time
	Span    uint64 // client span ID in traced runs
}

// latency is the due-time latency; a failed request returns -1, which
// the percentile code ranks above every success.
func (s *sample) latency() time.Duration {
	if s.Failed {
		return -1
	}
	return s.Done.Sub(s.Due)
}

// late is how long the sender took to issue the request once it could:
// after its due time and after the lane's previous reply. Waiting for a
// slow previous reply is the daemon's doing and is already in latency.
func (s *sample) late() time.Duration { return s.Sent.Sub(s.Ready) }

// lane is one strictly sequential sequence of requests on its own
// connection.
type lane struct {
	Ops []loadgen.Op
	// Open sends each op at Op.At after the lanes start, whether or not
	// earlier replies have landed; otherwise the lane is a closed loop.
	Open bool
}

// outcome is what a set of lanes did, in the shape loadgen's
// conformance check consumes.
type outcome struct {
	Samples  []sample
	Codes    map[string]map[int]uint64
	Accepted uint64
	Rejected uint64
	Dropped  uint64
	Watch    []loadgen.WatchObs
	Reloads  []loadgen.ReloadObs
	Errs     []string
	Start    time.Time
	End      time.Time
}

func newOutcome() *outcome {
	return &outcome{Codes: make(map[string]map[int]uint64)}
}

func (o *outcome) count(kind loadgen.OpKind, code int) {
	byCode := o.Codes[kind.String()]
	if byCode == nil {
		byCode = make(map[int]uint64)
		o.Codes[kind.String()] = byCode
	}
	byCode[code]++
}

func (o *outcome) merge(p *outcome) {
	o.Samples = append(o.Samples, p.Samples...)
	for k, byCode := range p.Codes {
		for code, n := range byCode {
			if o.Codes[k] == nil {
				o.Codes[k] = make(map[int]uint64)
			}
			o.Codes[k][code] += n
		}
	}
	o.Accepted += p.Accepted
	o.Rejected += p.Rejected
	o.Dropped += p.Dropped
	o.Watch = append(o.Watch, p.Watch...)
	o.Reloads = append(o.Reloads, p.Reloads...)
	o.Errs = append(o.Errs, p.Errs...)
	if o.Start.IsZero() || (!p.Start.IsZero() && p.Start.Before(o.Start)) {
		o.Start = p.Start
	}
	if p.End.After(o.End) {
		o.End = p.End
	}
}

// failed counts failed requests.
func (o *outcome) failed() int {
	n := 0
	for i := range o.Samples {
		if o.Samples[i].Failed {
			n++
		}
	}
	return n
}

// latencies returns the due-time latencies of requests of the given
// kinds.
func (o *outcome) latencies(kinds ...loadgen.OpKind) []time.Duration {
	var out []time.Duration
	for i := range o.Samples {
		for _, k := range kinds {
			if o.Samples[i].Kind == k {
				out = append(out, o.Samples[i].latency())
			}
		}
	}
	return out
}

// windowLatencies splits the due-time latencies of requests of the
// given kinds into k windows of equal length over span, by due time
// from the start of the lanes.
func (o *outcome) windowLatencies(k int, span time.Duration, kinds ...loadgen.OpKind) [][]time.Duration {
	out := make([][]time.Duration, k)
	for i := range o.Samples {
		s := &o.Samples[i]
		for _, kind := range kinds {
			if s.Kind != kind {
				continue
			}
			w := int(int64(s.Due.Sub(o.Start)) * int64(k) / int64(span))
			w = min(max(w, 0), k-1)
			out[w] = append(out[w], s.latency())
		}
	}
	return out
}

// spanHeader carries a client or router-leg span ID to the server so
// traced runs can link server spans to the request that caused them.
const spanHeader = "X-Bench-Span"

// client sends requests to one base URL over at most maxConns
// connections.
type client struct {
	base  string
	http  *http.Client
	spans *spanLog // nil in untraced runs
}

// maxConns is the generator's connection budget: two connections for
// two CPUs, so the generator never outnumbers the cores serving it.
const maxConns = 2

func newClient(base string, spans *spanLog) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		spans: spans,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get issues one harness GET and returns status and body.
func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	return c.send(ctx, http.MethodGet, path, "", nil, 0)
}

func (c *client) send(ctx context.Context, method, path, contentType string, body []byte, span uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if err == nil {
		err = cerr
	}
	return resp.StatusCode, b, err
}

// runLanes drives every lane concurrently until each has sent all its
// ops or ctx ends, and returns the merged outcome.
func (c *client) runLanes(ctx context.Context, lanes []lane) *outcome {
	outs := make([]*outcome, len(lanes))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range lanes {
		outs[i] = newOutcome()
		wg.Add(1)
		go func(l *lane, o *outcome) {
			defer wg.Done()
			c.runLane(ctx, l, o, start)
		}(&lanes[i], outs[i])
	}
	wg.Wait()
	res := newOutcome()
	res.Start = start
	for _, o := range outs {
		res.merge(o)
	}
	if res.End.IsZero() {
		res.End = time.Now()
	}
	return res
}

func (c *client) runLane(ctx context.Context, l *lane, o *outcome, start time.Time) {
	o.Samples = make([]sample, 0, len(l.Ops))
	due, prevDone := start, start
	for i := range l.Ops {
		op := &l.Ops[i]
		if l.Open {
			due = start.Add(op.At)
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
		}
		if ctx.Err() != nil {
			for j := i; j < len(l.Ops); j++ {
				o.Dropped += uint64(l.Ops[j].Records)
			}
			return
		}
		s := sample{Kind: op.Kind, Records: op.Records, Due: due, Ready: due}
		if prevDone.After(due) {
			s.Ready = prevDone
		}
		if c.spans != nil {
			s.Span = c.spans.newID()
		}
		s.Sent = time.Now()
		code, body, err := c.send(ctx, op.Kind.Method(), op.Path, op.Kind.ContentType(), op.Body, s.Span)
		s.Done = time.Now()
		if err != nil {
			code = 0
			if len(o.Errs) < 8 {
				o.Errs = append(o.Errs, fmt.Sprintf("%s %s: %v", op.Kind, op.Path, err))
			}
		}
		s.Code = code
		s.Failed = code == 0 || code == http.StatusTooManyRequests || code >= 500
		o.count(op.Kind, code)
		c.observe(o, op, &s, body)
		o.Samples = append(o.Samples, s)
		if c.spans != nil {
			c.spans.add(span{ID: s.Span, Name: "client." + op.Kind.String(),
				Start: c.spans.at(s.Sent), End: c.spans.at(s.Done)})
		}
		o.End = s.Done
		due, prevDone = s.Done, s.Done
	}
}

// observe applies loadgen's client-side accounting rules to one reply,
// so its conformance check can compare them with the daemon's counters.
func (c *client) observe(o *outcome, op *loadgen.Op, s *sample, body []byte) {
	switch op.Kind {
	case loadgen.OpIngestBatch, loadgen.OpIngestBin:
		var rep struct {
			Accepted int `json:"accepted"`
			Rejected int `json:"rejected"`
		}
		if s.Code == 0 || s.Code == http.StatusTooManyRequests || json.Unmarshal(body, &rep) != nil {
			o.Dropped += uint64(op.Records)
			return
		}
		o.Accepted += uint64(rep.Accepted)
		o.Rejected += uint64(rep.Rejected)
		if miss := op.Records - rep.Accepted - rep.Rejected; miss > 0 {
			o.Dropped += uint64(miss)
		}
	case loadgen.OpWatchlist:
		var rep struct {
			ModelVersion int `json:"model_version"`
		}
		if s.Code == http.StatusOK && json.Unmarshal(body, &rep) == nil {
			o.Watch = append(o.Watch, loadgen.WatchObs{Version: rep.ModelVersion, Start: s.Sent})
		}
	case loadgen.OpReload:
		var rep struct {
			Version int `json:"version"`
		}
		if s.Code == http.StatusOK && json.Unmarshal(body, &rep) == nil {
			o.Reloads = append(o.Reloads, loadgen.ReloadObs{Version: rep.Version, Done: s.Done})
		}
	}
}
