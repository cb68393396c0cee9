package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ssdfail/internal/loadgen"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding ssdserved and ssdrouter
	work     string // scratch space: WAL directories, logs, the model, spans
	scale    float64
}

// topology names the endpoints of one deployment.
type topology struct {
	front             string   // where the generator sends
	daemons           []string // every ssdserved
	primary, follower string   // routed_bin only
}

// passStats is what one pass (one fresh deployment) measured.
type passStats struct {
	setup    []time.Duration
	preload  *outcome
	load     *outcome
	burst    *outcome
	cpu      float64 // daemon CPU seconds over the load phase
	written  int64   // daemon write_bytes over the load phase
	rss      int64   // summed VmHWM
	problems []string
}

func (ps *passStats) ratePerSec() float64 {
	return float64(ps.load.Accepted) / ps.load.End.Sub(ps.load.Start).Seconds()
}

// daemonFlags are the flags every ssdserved runs with: deployment
// settings only, everything else at its default.
func daemonFlags(model, walDir string) []string {
	return []string{"-model", model, "-wal-dir", walDir}
}

// launch starts one deployment's processes and waits until every one of
// them answers its health check.
func launch(ctx context.Context, o *options, in *inputs, dir string) (group, topology, error) {
	var g group
	start := func(name, bin string, args ...string) (*proc, error) {
		p, err := startProc(name, filepath.Join(o.bin, bin), dir, args...)
		if err == nil {
			g = append(g, p)
		}
		return p, err
	}
	fail := func(err error) (group, topology, error) {
		g.stop()
		return nil, topology{}, err
	}
	var topo topology
	if !in.routed {
		d, err := start("ssdserved", "ssdserved", daemonFlags(in.model, filepath.Join(dir, "wal"))...)
		if err != nil {
			return fail(err)
		}
		topo = topology{front: d.url, daemons: []string{d.url}}
	} else {
		a, err := start("node-a", "ssdserved", append(daemonFlags(in.model, filepath.Join(dir, "wal-a")), "-node-name", "a")...)
		if err != nil {
			return fail(err)
		}
		b, err := start("node-b", "ssdserved", append(daemonFlags(in.model, filepath.Join(dir, "wal-b")), "-node-name", "b")...)
		if err != nil {
			return fail(err)
		}
		f, err := start("follower-a", "ssdserved", append(daemonFlags(in.model, filepath.Join(dir, "wal-f")), "-node-name", "f", "-follow", a.url)...)
		if err != nil {
			return fail(err)
		}
		r, err := start("ssdrouter", "ssdrouter", "-node", "a="+a.url, "-follower", "a=f="+f.url, "-node", "b="+b.url)
		if err != nil {
			return fail(err)
		}
		topo = topology{front: r.url, daemons: []string{a.url, b.url, f.url}, primary: a.url, follower: f.url}
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for _, p := range g {
		if err := waitReady(ctx, hc, p, "/healthz"); err != nil {
			return fail(err)
		}
	}
	return g, topo, nil
}

// processPass runs one pass against daemons in their own processes:
// set-up, the load phase and a check that every record was accepted and
// counted. The final pass adds the post-load burst and the full
// correctness check.
func processPass(ctx context.Context, o *options, in *inputs, dir string, final bool) (*passStats, error) {
	ps := &passStats{}
	setups := 1
	if in.mixed {
		setups = mixedSetups
	}
	var g group
	var topo topology
	defer func() { g.stop() }()
	for i := 0; i < setups; i++ {
		g.stop()
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		g, topo, err = launch(ctx, o, in, sub)
		if err != nil {
			return nil, err
		}
		if !in.mixed {
			ps.setup = append(ps.setup, time.Since(t0))
			continue
		}
		c := newClient(topo.front, nil)
		ps.preload = c.runLanes(ctx, []lane{{Ops: in.preload}})
		ps.setup = append(ps.setup, time.Since(t0))
		if i == setups-1 {
			err = snapshotAfterPreload(ctx, c)
		}
		c.close()
		if err != nil {
			return nil, err
		}
	}

	c := newClient(topo.front, nil)
	defer c.close()
	harness := newOutcome()
	base, err := takeBaseline(ctx, c, harness)
	if err != nil {
		return nil, err
	}
	before, err := g.readAll()
	if err != nil {
		return nil, err
	}
	ps.load = c.runLanes(ctx, in.lanes)
	after, err := g.readAll()
	if err != nil {
		return nil, err
	}
	for i := range before {
		ps.cpu += after[i].CPU - before[i].CPU
		ps.written += after[i].WriteBytes - before[i].WriteBytes
	}
	if final && len(in.burst) > 0 {
		ps.burst = c.runLanes(ctx, []lane{{Ops: in.burst}})
	}
	if ps.rss, err = g.peakRSS(); err != nil {
		return nil, err
	}
	if !final {
		ps.problems, err = checkCounts(ctx, c, topo, ps)
		return ps, err
	}
	ps.problems, err = checkPass(ctx, c, in, topo, ps, harness, base)
	return ps, err
}

// snapshotAfterPreload snapshots watchlist_mixed's store once its
// resident fleet is in, as an operator would after a bulk load. The
// snapshot also restarts the daemon's snapshot cadence, so the
// trickle's snapshots fall at the same points of the open loop whatever
// the seed. It is not part of the timed set-up.
func snapshotAfterPreload(ctx context.Context, c *client) error {
	code, body, err := c.send(ctx, http.MethodPost, "/v1/snapshot", "", nil, 0)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("snapshot after preload: status %d: %v %s", code, err, body)
	}
	return nil
}

// checkCounts is the per-pass check: no request failed, every record
// was accepted, and the daemons counted exactly the records the client
// saw accepted.
func checkCounts(ctx context.Context, c *client, topo topology, ps *passStats) ([]string, error) {
	var v []string
	for _, o := range []*outcome{ps.preload, ps.load} {
		if o != nil && (o.Rejected > 0 || o.Dropped > 0 || o.failed() > 0) {
			v = append(v, fmt.Sprintf("%d records rejected, %d dropped, %d requests failed (first error: %v)",
				o.Rejected, o.Dropped, o.failed(), firstOr(o.Errs)))
		}
	}
	want := ps.load.Accepted
	if ps.preload != nil {
		want += ps.preload.Accepted
	}
	var got float64
	for _, d := range topo.daemons {
		if d == topo.follower {
			continue
		}
		m, err := scrape(ctx, c, d)
		if err != nil {
			return nil, err
		}
		got += m["ssdserved_ingest_records_total"]
	}
	if got != float64(want) {
		v = append(v, fmt.Sprintf("daemons counted %.0f accepted records, the client %d", got, want))
	}
	return v, nil
}

// checkPass gates the final pass on correctness.
func checkPass(ctx context.Context, c *client, in *inputs, topo topology, ps *passStats, harness *outcome, base baseline) ([]string, error) {
	if in.mixed {
		v, err := checkCounts(ctx, c, topo, ps)
		if err != nil {
			return nil, err
		}
		truth, err := groundTruth(in.sentIngestOps())
		if err != nil {
			return nil, err
		}
		return append(v, checkWatchlist(ctx, c, in, truth)...), nil
	}
	all := newOutcome()
	all.merge(harness)
	all.merge(ps.load)
	if ps.burst != nil {
		all.merge(ps.burst)
	}
	v, err := verifyConformance(ctx, c, in, all, base)
	if err != nil {
		return nil, err
	}
	if in.routed {
		v = append(v, checkFollower(ctx, c, topo.primary, topo.follower)...)
	}
	return v, nil
}

func firstOr(errs []string) string {
	if len(errs) == 0 {
		return "none"
	}
	return errs[0]
}

// runUntraced measures a workload's end-to-end metrics: passes against
// daemons in their own processes, repeated until the run has lasted
// o.seconds (and at least minPasses times), reported as medians over
// passes or percentiles over every request.
func runUntraced(ctx context.Context, o *options, in *inputs, rep *report) error {
	var passes []*passStats
	start := time.Now()
	var prev time.Duration
	for i := 0; ; i++ {
		// A pass is the final one when the next would end past the run
		// length: the mixed workload's one pass is timed by its schedule.
		final := in.mixed || (i+1 >= minPasses && time.Since(start)+prev >= time.Duration(o.seconds*float64(time.Second)))
		dir, err := os.MkdirTemp(o.work, in.name+"-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		ps, err := processPass(ctx, o, in, dir, final)
		prev = time.Since(t0)
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, ps)
		rep.notes = append(rep.notes, fmt.Sprintf("pass %d: setup %.1f ms, %d records in %.3f s (%.0f rec/s), daemon CPU %.2f s, %d bytes written",
			i, ps.setup[len(ps.setup)-1].Seconds()*1e3, ps.load.Accepted, ps.load.End.Sub(ps.load.Start).Seconds(), ps.ratePerSec(), ps.cpu, ps.written))
		for _, p := range ps.problems {
			rep.violations = append(rep.violations, fmt.Sprintf("pass %d: %s", i, p))
		}
		if final {
			break
		}
	}
	windows := 1
	if in.mixed {
		windows = mixedWindows
	}
	endToEnd(rep, passes, windows, time.Duration(o.seconds*float64(time.Second)))
	return nil
}

// endToEnd reduces the passes to the end-to-end metrics. With windows
// above 1 there is one open-loop pass of length span, cut into that
// many windows, and each latency percentile is taken over all but the
// mixedDropWindows of them whose median latency is highest.
func endToEnd(rep *report, passes []*passStats, windows int, span time.Duration) {
	all := newOutcome()
	var setups []float64
	var rates, cpus, rss, bytesPerRec []float64
	for _, ps := range passes {
		for _, o := range []*outcome{ps.preload, ps.load, ps.burst} {
			if o != nil {
				all.merge(o)
			}
		}
		for _, d := range ps.setup {
			setups = append(setups, d.Seconds())
		}
		rates = append(rates, ps.ratePerSec())
		cpus = append(cpus, ps.cpu)
		rss = append(rss, float64(ps.rss)/(1<<20))
		bytesPerRec = append(bytesPerRec, float64(ps.written)/float64(ps.load.Accepted))
	}
	// Preload requests are set-up, not load: only load and burst
	// requests enter the latency figures.
	lat := newOutcome()
	for _, ps := range passes {
		lat.merge(ps.load)
		if ps.burst != nil {
			lat.merge(ps.burst)
		}
	}
	n := len(passes)
	rep.Attempted = len(all.Samples)
	rep.Failed = all.failed()
	rep.set("ingest_rec_per_s", median(rates), "rec/s", n, "accepted records per second of the load phase, median over passes")
	ingestKinds := []loadgen.OpKind{loadgen.OpIngestBin, loadgen.OpIngestBatch}
	timingOf := func(p float64, kinds ...loadgen.OpKind) timing {
		if windows > 1 {
			return steadyPercentileMs(passes[0].load.windowLatencies(windows, span, kinds...), mixedDropWindows, p)
		}
		return percentileMs(lat.latencies(kinds...), p)
	}
	rep.setTiming("ingest_p50_ms", timingOf(50, ingestKinds...))
	rep.setTiming("ingest_p99_ms", timingOf(99, ingestKinds...))
	rep.setTiming("watchlist_p50_ms", timingOf(50, loadgen.OpWatchlist))
	rep.setTiming("watchlist_p90_ms", timingOf(90, loadgen.OpWatchlist))
	ingest := lat.latencies(ingestKinds...)
	watch := lat.latencies(loadgen.OpWatchlist)
	errRate := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.set("success_rate", 1-errRate, "ratio", rep.Attempted,
		fmt.Sprintf("error_rate %.6f: %d of %d requests failed or were refused", errRate, rep.Failed, rep.Attempted))
	rep.set("setup_s", median(setups), "s", len(setups), "daemon launch until /healthz is ready (plus the preload for watchlist_mixed), median")
	rep.set("daemon_cpu_s", median(cpus), "s", n, "user+sys CPU of every daemon process over the load phase, median over passes")
	rep.set("peak_rss_mb", median(rss), "MiB", n, "summed VmHWM of the daemon processes, median over passes")
	rep.set("disk_write_bytes_per_rec", median(bytesPerRec), "B/rec", n, "daemon write_bytes over the load phase per accepted record, median over passes")

	for _, k := range []struct {
		name string
		lat  []time.Duration
	}{{"ingest", ingest}, {"watchlist", watch}} {
		var b strings.Builder
		for _, p := range percentileLadder {
			fmt.Fprintf(&b, " p%g %.3f", p, percentileMs(k.lat, p).Value)
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%s latency ladder (ms, %d requests):%s", k.name, len(k.lat), b.String()))
	}

	// The generator must keep to its schedule for due-time latencies to
	// describe the daemon rather than the generator.
	late := make([]time.Duration, len(lat.Samples))
	for i := range lat.Samples {
		late[i] = lat.Samples[i].late()
	}
	lt := percentileMs(late, 99)
	rep.notes = append(rep.notes, fmt.Sprintf("generator lateness: p99 %.3f ms over %d requests", lt.Value, lt.Samples))
}
