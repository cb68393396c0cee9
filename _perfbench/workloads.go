package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/loadgen"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/serve"
)

// Workload names. Why each exists, and which layers it loads and
// bypasses, is recorded in BENCHMARK.json.
const (
	wIngestBin      = "ingest_bin"
	wIngestJSON     = "ingest_json"
	wWatchlistMixed = "watchlist_mixed"
	wRoutedBin      = "routed_bin"
)

// workloadNames are the workloads BENCHMARK.json lists, in its order.
// routed_bin runs only when named: at the daemons' default settings its
// follower now and then falls behind the primary's WAL retention and
// never catches up, failing the run's replication check, so it cannot
// be a steady benchmark workload yet.
var workloadNames = []string{wIngestBin, wIngestJSON, wWatchlistMixed}

// noProbes pushes loadgen's read-path probes beyond the end of every
// stream.
const noProbes = math.MaxInt32

// watchlistPath is the query operators and the remediation engine
// issue: the top 50 drives by score, whatever their score.
const watchlistPath = "/v1/watchlist?threshold=0&k=50"

// The watchlist_mixed open loop at scale 1. The query rate is about
// half the capacity measured on 2 CPUs with the trickle running (a
// query over 30k drives takes about 65 ms of wall time there). The
// trickle sends 8-record batches, so that a run holds several times
// the 1000 requests a p99 needs, at about 1050 records a second: a
// 30-second run then holds 7.4 of the daemon's snapshot intervals
// (4096 records plus those accepted while a snapshot is written), far
// from a whole number, so runs do not split between 7 and 8 snapshots.
// Its rate is not a multiple of the query rate, so trickle requests land
// at every offset into a query rather than at the same few offsets each
// time. The preload merges the batches into 256-record ones.
//
// The run is cut into mixedWindows windows by due time, and latency
// percentiles are taken over the half of them with the lowest median
// latency: a burst of contention from other tenants of the host, which
// can last ten seconds, then drops out instead of moving the figure.
// The windows kept still hold 105 queries, enough for a p90, and 1965
// ingest requests, enough for a p99.
const (
	mixedQueryRate   = 7.0
	mixedTrickleRate = 131.0
	mixedTrickleSize = 8
	mixedPreloadSize = 256
	mixedWindows     = 6
	mixedDropWindows = 3
	// mixedPreloadFrac of the schedule's records (the first two of its
	// five days) is ingested during set-up; the rest is the trickle.
	mixedPreloadFrac = 0.4
	// mixedSetups is how many times set-up (launch plus preload) is
	// repeated to take its median.
	mixedSetups = 7
)

// burstQueries is the closed-loop watchlist burst that follows the
// last pass of the binary ingest workloads: after a day's reports are
// in, operators ask which drives will fail. It runs after the load
// phase, so it does not disturb the ingest figures, and it yields the
// 100 samples a p90 needs with some to spare.
const burstQueries = 160

// minPasses is the fewest passes a closed-loop run makes, so that its
// medians rest on more than one deployment.
const minPasses = 3

// workloadConfig returns the schedule of a workload. scale shrinks the
// fleet (tests run at a tiny scale); 1 is the benchmark's size.
func workloadConfig(name string, seed uint64, scale float64) (loadgen.Config, error) {
	drives := func(n int) int { return max(2, int(math.Round(float64(n)*scale))) }
	base := loadgen.Config{
		Seed:        seed,
		Mode:        loadgen.ModeClosed,
		Streams:     2,
		HorizonDays: 120,
		Days:        60,
		BatchSize:   256,
		ProbeEvery:  noProbes,
		Wire:        loadgen.WireBinary,
	}
	switch name {
	case wIngestBin:
		base.DrivesPerModel = drives(4000)
	case wIngestJSON:
		// The default ssdload mix: 16-record JSON batches, a probe every
		// 8 batches, one hot reload at the midpoint of stream 0.
		base.DrivesPerModel = drives(500)
		base.BatchSize = 16
		base.ProbeEvery = 8
		base.ReloadMidRun = true
		base.Wire = loadgen.WireJSON
	case wRoutedBin:
		base.DrivesPerModel = drives(2000)
	case wWatchlistMixed:
		// One stream ordered by (day, drive): its prefix is the preload,
		// its suffix the later days of the same drives.
		base.DrivesPerModel = drives(10000)
		base.Streams = 1
		base.HorizonDays = 100
		base.Days = 5
		base.BatchSize = mixedTrickleSize
	default:
		return base, fmt.Errorf("unknown workload %q (want one of %v, %s or all)", name, workloadNames, wRoutedBin)
	}
	return base, nil
}

// inputs is everything a run sends, built from the seed before any
// daemon starts.
type inputs struct {
	name  string
	seed  uint64
	sched *loadgen.Schedule
	model string
	// lanes is the load phase; burst follows it (binary ingest
	// workloads only).
	lanes []lane
	burst []loadgen.Op
	// preload is ingested during set-up (watchlist_mixed only).
	preload []loadgen.Op
	routed  bool
	mixed   bool
}

// buildInputs builds a workload's schedule and lanes. seconds sizes the
// open loop of watchlist_mixed.
func buildInputs(name string, seed uint64, scale float64, seconds float64, model string) (*inputs, error) {
	cfg, err := workloadConfig(name, seed, scale)
	if err != nil {
		return nil, err
	}
	sched, err := loadgen.Build(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{name: name, seed: seed, sched: sched, model: model,
		routed: name == wRoutedBin, mixed: name == wWatchlistMixed}
	if !in.mixed {
		for i := range sched.Streams {
			in.lanes = append(in.lanes, lane{Ops: sched.Streams[i].Ops})
		}
		if name != wIngestJSON {
			in.burst = watchlistOps(burstQueries, 0)
		}
		return in, nil
	}
	ops := sched.Streams[0].Ops
	per := mixedPreloadSize / mixedTrickleSize
	cut := int(float64(len(ops))*mixedPreloadFrac) / per * per
	for i := 0; i < cut; i += per {
		in.preload = append(in.preload, mergeBin(ops[i:i+per]))
	}
	trickle := append([]loadgen.Op(nil), ops[cut:]...)
	if n := int(math.Ceil(seconds * mixedTrickleRate)); n < len(trickle) {
		trickle = trickle[:n]
	}
	for i := range trickle {
		trickle[i].At = time.Duration(float64(i) / mixedTrickleRate * float64(time.Second))
	}
	queryRate := mixedQueryRate
	if scale < 1 {
		// A tiny fleet scores in microseconds; keep the test short.
		queryRate *= 4
	}
	in.lanes = []lane{
		{Ops: watchlistOps(int(seconds*queryRate), queryRate), Open: true},
		{Ops: trickle, Open: true},
	}
	return in, nil
}

// mergeBin joins consecutive binary ingest batches into one.
func mergeBin(ops []loadgen.Op) loadgen.Op {
	n := 0
	for i := range ops {
		n += ops[i].Records
	}
	body := serve.AppendBinHeader(nil, n)
	for i := range ops {
		body = append(body, ops[i].Body[serve.BinHeaderSize:]...)
	}
	return loadgen.Op{Kind: loadgen.OpIngestBin, Path: ops[0].Path, Body: body, Records: n}
}

// watchlistOps returns n watchlist queries, spaced 1/rate apart from
// half an interval in (rate 0 leaves them unscheduled, for closed
// loops).
func watchlistOps(n int, rate float64) []loadgen.Op {
	ops := make([]loadgen.Op, n)
	for i := range ops {
		ops[i] = loadgen.Op{Kind: loadgen.OpWatchlist, Path: watchlistPath}
		if rate > 0 {
			ops[i].At = time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
		}
	}
	return ops
}

// sentIngestOps returns the ingest ops of the preload and the load
// lanes, each lane in order. A drive lives in one lane, so per-drive day
// order holds.
func (in *inputs) sentIngestOps() []loadgen.Op {
	ops := append([]loadgen.Op(nil), in.preload...)
	for _, l := range in.lanes {
		for _, op := range l.Ops {
			if op.Records > 0 {
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// Model training parameters: the daemon's -bootstrap defaults.
const (
	modelSeed      = 42
	modelDrives    = 150
	modelTrees     = 50
	modelLookahead = 3
)

// ensureModel trains the predictor every daemon serves, once per
// checkout: it is an input like the schedule, fixed rather than seeded
// so that runs with different seeds score with the same model.
func ensureModel(dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("model-s%d-d%d-t%d.bin", modelSeed, modelDrives, modelTrees))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	study, err := core.GenerateStudy(modelSeed, modelDrives)
	if err != nil {
		return "", err
	}
	fcfg := forest.DefaultConfig()
	fcfg.Trees = modelTrees
	fcfg.Seed = modelSeed
	pred, err := study.TrainPredictor(core.PredictorOptions{
		Lookahead:       modelLookahead,
		Factory:         forest.NewFactory(fcfg),
		Seed:            modelSeed,
		HoldoutFraction: 0.25,
	})
	if err != nil {
		return "", err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := pred.Save(tmp); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}
