package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/loadgen"
	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
)

// baseline is what loadgen's conformance check needs from before the
// load: the serving model version and every counter.
type baseline struct {
	version int
	metrics map[string]float64
}

// takeBaseline scrapes /metrics and /v1/model, counting both requests
// in o so the check can reconcile the daemon's request counters.
func takeBaseline(ctx context.Context, c *client, o *outcome) (baseline, error) {
	m, err := scrape(ctx, c, "")
	if err != nil {
		return baseline{}, fmt.Errorf("baseline scrape: %w", err)
	}
	o.count(loadgen.OpMetrics, http.StatusOK)
	code, body, err := c.get(ctx, "/v1/model")
	if err != nil || code != http.StatusOK {
		return baseline{}, fmt.Errorf("baseline model read: status %d: %v", code, err)
	}
	o.count(loadgen.OpModel, code)
	var rep struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return baseline{}, fmt.Errorf("baseline model read: %w", err)
	}
	return baseline{version: rep.Version, metrics: m}, nil
}

// scrape reads /metrics of base (empty for the client's own base URL).
func scrape(ctx context.Context, c *client, base string) (map[string]float64, error) {
	cc := c
	if base != "" {
		cc = &client{base: base, http: c.http}
	}
	code, body, err := cc.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", code)
	}
	return loadgen.ParseMetrics(string(body))
}

// verifyConformance runs loadgen's conformance check: every scheduled
// drive's exact end state, model versions, and (outside cluster mode)
// the daemon's request and record counters against the client's.
func verifyConformance(ctx context.Context, c *client, in *inputs, out *outcome, base baseline) ([]string, error) {
	res := &loadgen.Result{
		Sched:           in.sched,
		Hists:           make(map[string]*loadgen.Histogram),
		Codes:           out.Codes,
		Requests:        uint64(len(out.Samples)),
		AcceptedRecords: out.Accepted,
		RejectedRecords: out.Rejected,
		DroppedRecords:  out.Dropped,
		Watchlists:      out.Watch,
		Reloads:         out.Reloads,
		BaselineVersion: base.version,
		BaselineMetrics: base.metrics,
		TransportErrors: out.Errs,
	}
	r := &loadgen.Runner{BaseURL: c.base, Client: c.http, Seed: in.seed}
	return r.Verify(ctx, res, loadgen.VerifyOptions{History: serve.DefaultHistory, Cluster: in.routed})
}

// checkFollower waits for the follower to have applied every record
// the primary accepted: replication must lose nothing either.
func checkFollower(ctx context.Context, c *client, primary, follower string) []string {
	deadline := time.Now().Add(20 * time.Second)
	for {
		pm, err := scrape(ctx, c, primary)
		if err != nil {
			return []string{"primary scrape: " + err.Error()}
		}
		fm, err := scrape(ctx, c, follower)
		if err != nil {
			return []string{"follower scrape: " + err.Error()}
		}
		want, got := pm["ssdserved_ingest_records_total"], fm["ssdserved_replica_applied_total"]
		if got == want && want > 0 {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return []string{fmt.Sprintf("follower applied %.0f records, primary accepted %.0f; primary answered %.0f WAL stream pulls with 410 (pruned)",
				got, want, pm[`ssdserved_http_requests_total{handler="wal_stream",code="410"}`])}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// lastTwo is a drive's latest report and the one before it.
type lastTwo struct {
	model      trace.Model
	last, prev trace.DayRecord
	hasPrev    bool
}

// groundTruth decodes every record the ingest ops carried and keeps
// each drive's last two.
func groundTruth(ops []loadgen.Op) (map[uint32]*lastTwo, error) {
	out := make(map[uint32]*lastTwo)
	for i := range ops {
		count, rest, err := serve.ParseBinHeader(ops[i].Body)
		if err != nil {
			return nil, err
		}
		for j := 0; j < count; j++ {
			payload, next, err := trace.NextFrame(rest, serve.BinRecordSize)
			if err != nil {
				return nil, err
			}
			rest = next
			id, model, rec, err := serve.DecodeWALRecord(payload)
			if err != nil {
				return nil, err
			}
			d := out[id]
			if d == nil {
				d = &lastTwo{model: model}
				out[id] = d
			} else {
				d.prev, d.hasPrev = d.last, true
			}
			d.last = rec
		}
	}
	return out, nil
}

// checkWatchlist compares the daemon's quiescent watchlist with an
// offline rescoring of the ground truth: the same model file, the last
// two records of every drive, ranked by serve.Rank.
func checkWatchlist(ctx context.Context, c *client, in *inputs, truth map[uint32]*lastTwo) []string {
	pred, err := core.LoadPredictor(in.model)
	if err != nil {
		return []string{"loading model: " + err.Error()}
	}
	items := make([]serve.Scored, 0, len(truth))
	for id, d := range truth {
		var prev *trace.DayRecord
		if d.hasPrev {
			prev = &d.prev
		}
		items = append(items, serve.Scored{ID: id, Model: d.model, Score: pred.ScoreRecord(&d.last, prev)})
	}
	want := serve.Rank(items, 0, 50)

	code, body, err := c.get(ctx, watchlistPath)
	if err != nil || code != http.StatusOK {
		return []string{fmt.Sprintf("final watchlist: status %d: %v", code, err)}
	}
	var got struct {
		FleetSize int `json:"fleet_size"`
		Items     []struct {
			DriveID uint32  `json:"drive_id"`
			Score   float64 `json:"score"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return []string{"final watchlist: " + err.Error()}
	}
	var v []string
	if got.FleetSize != len(truth) {
		v = append(v, fmt.Sprintf("final watchlist scored %d drives, %d were ingested", got.FleetSize, len(truth)))
	}
	if len(got.Items) != len(want) {
		return append(v, fmt.Sprintf("final watchlist has %d items, offline rescoring %d", len(got.Items), len(want)))
	}
	for i := range want {
		if got.Items[i].DriveID != want[i].ID || got.Items[i].Score != want[i].Score {
			v = append(v, fmt.Sprintf("watchlist rank %d: drive %d score %v, offline drive %d score %v",
				i, got.Items[i].DriveID, got.Items[i].Score, want[i].ID, want[i].Score))
			if len(v) >= 8 {
				break
			}
		}
	}
	return v
}
