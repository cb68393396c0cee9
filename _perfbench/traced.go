package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ssdfail/internal/cluster"
	"ssdfail/internal/faultfs"
	"ssdfail/internal/loadgen"
	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
)

// hosted is a deployment whose daemons run in this process, so their
// public seams can be wrapped with timers.
type hosted struct {
	topo     topology
	servers  []*serve.Server
	primary  *serve.Server // routed_bin: node a
	https    []*http.Server
	follower *cluster.Follower
	applyNs  atomic.Int64
	applied  atomic.Int64
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// hostDaemon serves one serve.Server on a loopback port. With spans,
// its handler and its WAL filesystem are timed.
func (h *hosted) hostDaemon(in *inputs, name, walDir string, spans *spanLog) (*serve.Server, string, error) {
	cfg := serve.Config{ModelPath: in.model, WALDir: walDir, NodeName: name, ModelLoadAttempts: 5}
	if spans != nil {
		cfg.WALFS = tracedFS{FS: faultfs.OS(), l: spans}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, "", err
	}
	h.servers = append(h.servers, srv)
	var handler http.Handler = srv.Handler()
	if spans != nil {
		handler = tracedHandler(spans, "serve.handler", handler)
	}
	url, err := h.listen(handler)
	return srv, url, err
}

func (h *hosted) listen(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	h.https = append(h.https, hs)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// host starts a deployment in this process: one daemon, or for
// routed_bin a router over nodes a and b with a follower of a.
func host(ctx context.Context, in *inputs, dir string, spans *spanLog) (*hosted, error) {
	h := &hosted{}
	ctx, h.cancel = context.WithCancel(ctx)
	fail := func(err error) (*hosted, error) {
		h.close()
		return nil, err
	}
	if !in.routed {
		_, url, err := h.hostDaemon(in, "", filepath.Join(dir, "wal"), spans)
		if err != nil {
			return fail(err)
		}
		h.topo = topology{front: url, daemons: []string{url}}
		return h, nil
	}
	a, aURL, err := h.hostDaemon(in, "a", filepath.Join(dir, "wal-a"), spans)
	if err != nil {
		return fail(err)
	}
	h.primary = a
	_, bURL, err := h.hostDaemon(in, "b", filepath.Join(dir, "wal-b"), spans)
	if err != nil {
		return fail(err)
	}
	f, fURL, err := h.hostDaemon(in, "f", filepath.Join(dir, "wal-f"), spans)
	if err != nil {
		return fail(err)
	}
	h.follower = &cluster.Follower{Upstream: aURL, Apply: f.ApplyReplicated}
	var rc *http.Client
	if spans != nil {
		h.follower.Client = &http.Client{Timeout: 10 * time.Second,
			Transport: &tracedTransport{l: spans, name: "cluster.follower.pull", base: http.DefaultTransport.(*http.Transport).Clone()}}
		h.follower.Apply = func(id uint32, model trace.Model, rec trace.DayRecord) (bool, error) {
			t0 := time.Now()
			ok, err := f.ApplyReplicated(id, model, rec)
			h.applyNs.Add(int64(time.Since(t0)))
			h.applied.Add(1)
			return ok, err
		}
		// The router's default client, with a timed transport.
		rc = &http.Client{Timeout: 3 * time.Second,
			Transport: &tracedTransport{l: spans, name: "cluster.router.leg", base: http.DefaultTransport.(*http.Transport).Clone()}}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = h.follower.Run(ctx) // returns only once ctx ends; pull errors are retried inside
	}()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:  []cluster.Node{{Name: "a", URL: aURL, FollowerName: "f", FollowerURL: fURL}, {Name: "b", URL: bURL}},
		Client: rc,
	})
	if err != nil {
		return fail(err)
	}
	// The router's probe loop has no stop method; it ends when ctx,
	// which close cancels, does.
	rt.Start(ctx)
	var handler http.Handler = rt.Handler()
	if spans != nil {
		handler = tracedHandler(spans, "cluster.router.handler", handler)
	}
	front, err := h.listen(handler)
	if err != nil {
		return fail(err)
	}
	h.topo = topology{front: front, daemons: []string{aURL, bURL, fURL}, primary: aURL, follower: fURL}
	return h, nil
}

// close stops the deployment and waits for its goroutines. Later calls
// return the first call's result.
func (h *hosted) close() error {
	h.closeOnce.Do(func() {
		h.cancel()
		var errs []error
		for _, hs := range h.https {
			errs = append(errs, hs.Close())
		}
		h.wg.Wait()
		for _, s := range h.servers {
			errs = append(errs, s.Close())
		}
		h.closeErr = errors.Join(errs...)
	})
	return h.closeErr
}

// counterSum sums one series over every hosted daemon.
func (h *hosted) counterSum(series string) float64 {
	var sum float64
	for _, s := range h.servers {
		sum += s.CounterSnapshot()[series]
	}
	return sum
}

// runtime/metrics the traced pass reads around its load phase. They
// cover the whole benchmark process: daemons and generator alike.
var rtSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// inprocPass is what one in-process pass measured.
type inprocPass struct {
	passStats
	scoringSum, scoringCount float64
	snapshots                float64
	gcFrac, allocBytes       float64
	lag                      []float64
	applyNs, applied         int64
	spans                    []span // load phase only
}

// runInprocPass runs one pass against a hosted deployment; spans nil runs
// it untimed, as the baseline for the tracing overhead.
func runInprocPass(ctx context.Context, in *inputs, dir string, spans *spanLog, final bool, burst []loadgen.Op) (*inprocPass, error) {
	h, err := host(ctx, in, dir, spans)
	if err != nil {
		return nil, err
	}
	defer h.close()
	p := &inprocPass{}
	c := newClient(h.topo.front, spans)
	defer c.close()
	if in.mixed {
		p.preload = c.runLanes(ctx, []lane{{Ops: in.preload}})
		if err := snapshotAfterPreload(ctx, c); err != nil {
			return nil, err
		}
	}
	harness := newOutcome()
	base, err := takeBaseline(ctx, c, harness)
	if err != nil {
		return nil, err
	}
	if spans != nil {
		spans.reset()
	}
	snap0 := h.counterSum("ssdserved_wal_snapshots_total")
	rt0 := readRuntime()
	stopLag := p.sampleLag(h)
	p.load = c.runLanes(ctx, in.lanes)
	stopLag()
	rt1 := readRuntime()
	if cpu := rt1[1] - rt0[1]; cpu > 0 {
		p.gcFrac = (rt1[0] - rt0[0]) / cpu
	}
	p.allocBytes = rt1[2] - rt0[2]
	p.snapshots = h.counterSum("ssdserved_wal_snapshots_total") - snap0
	if spans != nil {
		p.spans = spans.snapshot()
	}
	if len(burst) > 0 {
		p.burst = c.runLanes(ctx, []lane{{Ops: burst}})
	}
	if final {
		p.problems, err = checkPass(ctx, c, in, h.topo, &p.passStats, harness, base)
	} else {
		p.problems, err = checkCounts(ctx, c, h.topo, &p.passStats)
	}
	if err != nil {
		return nil, err
	}
	p.scoringSum = h.counterSum("ssdserved_scoring_duration_seconds_sum")
	p.scoringCount = h.counterSum("ssdserved_scoring_duration_seconds_count")
	p.applyNs, p.applied = h.applyNs.Load(), h.applied.Load()
	return p, h.close()
}

// sampleLag samples, every 10 ms until stopped, how many records the
// follower trails its primary by: the primary's last WAL LSN against
// the last LSN the follower applied.
func (p *inprocPass) sampleLag(h *hosted) (stop func()) {
	if h.follower == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				last := h.primary.CounterSnapshot()["ssdserved_wal_last_lsn"]
				applied := float64(h.follower.Stats().NextLSN - 1)
				p.lag = append(p.lag, max(0, last-applied))
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runTraced measures a workload's per-layer metrics: pairs of an
// untimed and a timed pass with the daemons in this process, repeated
// until the run has lasted o.seconds, then a single-threaded replay of
// the run's inputs through each layer's public functions.
func runTraced(ctx context.Context, o *options, in *inputs, rep *report) error {
	dir, err := os.MkdirTemp(o.work, in.name+"-trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spans := newSpanLog()
	var plain, timed []*inprocPass
	start := time.Now()
	var prev time.Duration
	for i := 0; ; i++ {
		final := in.mixed || time.Since(start)+prev >= time.Duration(o.seconds*float64(time.Second))
		t0 := time.Now()
		// The first untimed pass ends with a few watchlist queries, so
		// the daemons' scoring histogram has something to report.
		var burst []loadgen.Op
		if i == 0 {
			burst = in.burst[:min(len(in.burst), tracedBurst)]
		}
		p, err := runInprocPass(ctx, in, filepath.Join(dir, fmt.Sprintf("plain%d", i)), nil, false, burst)
		if err != nil {
			return fmt.Errorf("untimed pass: %w", err)
		}
		t, err := runInprocPass(ctx, in, filepath.Join(dir, fmt.Sprintf("timed%d", i)), spans, final, nil)
		if err != nil {
			return fmt.Errorf("timed pass: %w", err)
		}
		plain, timed = append(plain, p), append(timed, t)
		rep.violations = append(rep.violations, p.problems...)
		rep.violations = append(rep.violations, t.problems...)
		prev = time.Since(t0)
		if final {
			break
		}
	}
	costs, err := replayLayers(in, filepath.Join(dir, "replay"))
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	pt := pool(timed)
	perLayer(rep, in.routed, pool(plain), pt, costs)
	return writeSpans(filepath.Join(o.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", in.name, in.seed)), pt.spans)
}

// tracedBurst is how many post-load watchlist queries a traced run
// sends, for serve.scoring_s_per_query.
const tracedBurst = 20

// pooled is passes of one kind taken together.
type pooled struct {
	inprocPass
	passes int
	rates  []float64
}

func pool(ps []*inprocPass) *pooled {
	out := &pooled{passes: len(ps)}
	out.load = newOutcome()
	for _, p := range ps {
		out.load.merge(p.load)
		out.rates = append(out.rates, p.ratePerSec())
		out.scoringSum += p.scoringSum
		out.scoringCount += p.scoringCount
		out.snapshots += p.snapshots
		out.gcFrac += p.gcFrac / float64(len(ps))
		out.allocBytes += p.allocBytes
		out.lag = append(out.lag, p.lag...)
		out.applyNs += p.applyNs
		out.applied += p.applied
		out.spans = append(out.spans, p.spans...)
	}
	return out
}

// perLayer reduces the traced run to the per-layer metrics. The cluster
// metrics exist only for routed_bin; other metrics of a layer the
// workload does not reach read 0.
func perLayer(rep *report, routed bool, plain, timed *pooled, c *layerCosts) {
	acc := float64(timed.load.Accepted)
	perRec := func(x float64) float64 {
		if acc == 0 {
			return 0
		}
		return x / acc
	}
	rep.Attempted = len(timed.load.Samples)
	rep.Failed = timed.load.failed()

	byID := make(map[uint64]*span, len(timed.spans))
	kids := make(map[uint64][]*span)
	var segBytes, snapBytes float64
	var fsyncs []time.Duration
	for i := range timed.spans {
		s := &timed.spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		switch s.Name {
		case "wal.segment.write":
			segBytes += float64(s.Bytes)
		case "wal.snapshot.write":
			snapBytes += float64(s.Bytes)
		case "wal.segment.fsync":
			fsyncs = append(fsyncs, s.dur())
		}
	}

	// Client-observed time, and the share of it each layer accounts
	// for: HTTP (client span minus the first server span), the router's
	// own time, and the replayed cost of the work the request carried.
	var httpSelf, routerSelf time.Duration
	var nHTTP, nRouted, legs int
	var clientTotal, covered float64
	for i := range timed.load.Samples {
		smp := &timed.load.Samples[i]
		cs := byID[smp.Span]
		if cs == nil {
			continue
		}
		clientTotal += float64(cs.dur())
		var handler *span
		for _, k := range kids[cs.ID] {
			if k.Name == "serve.handler" || k.Name == "cluster.router.handler" {
				handler = k
			}
		}
		if handler == nil {
			continue
		}
		self := cs.dur() - handler.dur()
		httpSelf += self
		nHTTP++
		cov := float64(self)
		if handler.Name == "cluster.router.handler" {
			var ls []*span
			for _, k := range kids[handler.ID] {
				if k.Name == "cluster.router.leg" {
					ls = append(ls, k)
				}
			}
			rs := handler.dur() - union(ls)
			routerSelf += rs
			nRouted++
			legs += len(ls)
			cov += float64(rs)
		}
		switch smp.Kind {
		case loadgen.OpIngestBin, loadgen.OpIngestBatch:
			cov += float64(smp.Records) * (c.wireNs + c.journalNs)
		case loadgen.OpWatchlist:
			cov += (c.scoreUnitsMs + c.scoreMs + c.rankMs) * 1e6
		}
		covered += cov
	}
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / 1e3
	}

	rep.set("http.self_us_per_req", mean(httpSelf, nHTTP), "us", nHTTP, "client span minus the first server span")
	rep.set("serve.wire.ns_per_rec", c.wireNs, "ns", c.records, c.wireNote)
	rep.set("serve.wire.allocs_per_rec", c.wireAllocs, "count", c.records, "heap allocations per record of the decode above")
	rep.set("serve.store.upsert_ns_per_rec", c.storeNs, "ns", c.records, "Store.Upsert on an unjournaled store")
	rep.set("serve.store.scoreunits_ms", c.scoreUnitsMs, "ms", c.drives, "Store.ScoreUnits over the resident fleet, median of 5")
	rep.set("serve.journal.upsert_ns_per_rec", c.journalNs, "ns", c.records, "Journal.UpsertPayload/Upsert at the default WAL policy")
	rep.set("serve.journal.snapshots", timed.snapshots/float64(timed.passes), "count", timed.passes, "ssdserved_wal_snapshots_total over a timed load phase, all daemons, mean over passes")
	rep.set("serve.journal.snapshot_ms", c.snapshotMs, "ms", c.drives, "Journal.Snapshot of the resident fleet, median of 3")
	rep.set("serve.journal.snapshot_bytes_per_rec", perRec(snapBytes), "B/rec", int(acc), "snapshot bytes written per accepted record")
	rep.set("wal.write_bytes_per_rec", perRec(segBytes), "B/rec", int(acc), "WAL segment bytes written per accepted record, all daemons")
	rep.set("wal.fsyncs_per_krec", perRec(float64(len(fsyncs)))*1000, "count", len(fsyncs), "WAL segment fsyncs per 1000 accepted records")
	rep.set("wal.fsync_ms_p50", zeroNaN(medianDur(fsyncs)), "ms", len(fsyncs), "median WAL segment fsync")
	rep.set("serve.scorer.score_ms", c.scoreMs, "ms", c.drives, "Scorer.Score over the resident fleet, median of 5")
	rep.set("dataset.featurize_ns_per_drive", c.featurizeNs, "ns", c.drives, "Matrix.AppendFeatureRow in 256-row blocks")
	rep.set("forest.score_ns_per_drive", c.forestNs, "ns", c.drives, "Predictor.ScoreMatrix in 256-row blocks")
	rep.set("serve.scorer.rank_ms", c.rankMs, "ms", c.drives, "serve.Rank top 50, median of 5")
	spq := 0.0
	if plain.scoringCount > 0 {
		spq = plain.scoringSum / plain.scoringCount
	}
	rep.set("serve.scoring_s_per_query", spq, "s", int(plain.scoringCount), "ssdserved_scoring_duration_seconds sum/count, untimed pass")
	if routed {
		rep.set("cluster.router.self_us_per_req", mean(routerSelf, nRouted), "us", nRouted, "router handler span minus the union of its leg spans")
		legsPer := 0.0
		if nRouted > 0 {
			legsPer = float64(legs) / float64(nRouted)
		}
		rep.set("cluster.router.legs_per_req", legsPer, "count", nRouted, "node legs per routed request")
		applyNs := 0.0
		if timed.applied > 0 {
			applyNs = float64(timed.applyNs) / float64(timed.applied)
		}
		rep.set("cluster.follower.apply_ns_per_rec", applyNs, "ns", int(timed.applied), "Follower.Apply wrapping ApplyReplicated")
		rep.set("cluster.follower.lag_rec_p50", zeroNaN(median(timed.lag)), "count", len(timed.lag), "primary last LSN minus follower applied LSN, sampled every 10 ms")
	}
	rep.set("runtime.gc_cpu_frac", timed.gcFrac, "ratio", timed.passes, "GC share of this process's CPU over the timed load phase")
	rep.set("runtime.alloc_bytes_per_rec", perRec(timed.allocBytes), "B/rec", int(acc), "heap bytes allocated by this process per accepted record")
	late := make([]time.Duration, len(plain.load.Samples))
	for i := range plain.load.Samples {
		late[i] = plain.load.Samples[i].late()
	}
	lt := percentileMs(late, 99)
	rep.set("loadgen.late_p99_ms", lt.Value, "ms", lt.Samples, "p99 of how late the sender issued requests, untimed pass")
	unattributed := 0.0
	if clientTotal > 0 {
		unattributed = 1 - covered/clientTotal
	}
	rep.set("trace.unattributed_frac", unattributed, "ratio", nHTTP, "client time not covered by HTTP, router or replayed layer costs")
	rep.set("trace.overhead_frac", 1-median(timed.rates)/median(plain.rates), "ratio", timed.passes, "median timed against median untimed ingest_rec_per_s, both in-process")
}

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// union is the total time covered by a set of possibly overlapping
// spans.
func union(ss []*span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ss))
	for i, s := range ss {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return time.Duration(total + cur[1] - cur[0])
}
