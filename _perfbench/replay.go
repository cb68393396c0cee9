package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ssdfail/internal/core"
	"ssdfail/internal/dataset"
	"ssdfail/internal/loadgen"
	"ssdfail/internal/serve"
	"ssdfail/internal/trace"
)

// layerCosts are per-layer costs from replaying a run's inputs,
// single-threaded, through each layer's public functions.
type layerCosts struct {
	records  int
	drives   int
	wireNote string

	wireNs, wireAllocs float64 // per record
	storeNs            float64 // per record
	journalNs          float64 // per record
	snapshotMs         float64

	scoreUnitsMs, scoreMs, rankMs float64
	featurizeNs, forestNs         float64 // per drive
}

// decoded is one ingested record as the wire layer hands it on.
type decoded struct {
	id      uint32
	model   trace.Model
	rec     trace.DayRecord
	payload []byte // canonical WAL payload (binary wire only)
}

// replayLayers replays the ingest ops the run sent: decode, store and
// journal, each timed on its own, then scores the resulting fleet.
func replayLayers(in *inputs, dir string) (*layerCosts, error) {
	ops := in.sentIngestOps()
	total := 0
	for i := range ops {
		total += ops[i].Records
	}
	c := &layerCosts{records: total}
	if total == 0 {
		return c, nil
	}
	isJSON := in.sched.Cfg.Wire == loadgen.WireJSON
	recs := make([]decoded, 0, total)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var err error
	if isJSON {
		c.wireNote = "json.Unmarshal into []serve.IngestRecord plus ToRecord"
		recs, err = decodeJSON(ops, recs)
	} else {
		c.wireNote = "ParseBinHeader, trace.NextFrame and DecodeWALRecord"
		recs, err = decodeBin(ops, recs)
	}
	wire := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	c.wireNs = float64(wire) / float64(total)
	c.wireAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(total)

	st := serve.NewStore(0, 0)
	t0 = time.Now()
	for i := range recs {
		if err := st.Upsert(recs[i].id, recs[i].model, recs[i].rec); err != nil {
			return nil, fmt.Errorf("store replay: %w", err)
		}
	}
	c.storeNs = float64(time.Since(t0)) / float64(total)

	js := serve.NewStore(0, 0)
	j, err := serve.OpenJournal(js, serve.JournalOptions{Dir: dir, AsyncSnapshots: true})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := range recs {
		r := &recs[i]
		if isJSON {
			err = j.Upsert(r.id, r.model, r.rec)
		} else {
			err = j.UpsertPayload(r.id, r.model, r.rec, r.payload)
		}
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("journal replay: %w", err)
		}
	}
	c.journalNs = float64(time.Since(t0)) / float64(total)
	var snaps []time.Duration
	for k := 0; k < 3; k++ {
		t0 = time.Now()
		if err := j.Snapshot(); err != nil {
			j.Close()
			return nil, err
		}
		snaps = append(snaps, time.Since(t0))
	}
	c.snapshotMs = medianDur(snaps)
	if err := j.Close(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return c, scoreLayers(in, js, c)
}

func decodeBin(ops []loadgen.Op, recs []decoded) ([]decoded, error) {
	for i := range ops {
		count, rest, err := serve.ParseBinHeader(ops[i].Body)
		if err != nil {
			return nil, err
		}
		for k := 0; k < count; k++ {
			payload, next, err := trace.NextFrame(rest, serve.BinRecordSize)
			if err != nil {
				return nil, err
			}
			rest = next
			id, model, rec, err := serve.DecodeWALRecord(payload)
			if err != nil {
				return nil, err
			}
			recs = append(recs, decoded{id: id, model: model, rec: rec, payload: payload})
		}
	}
	return recs, nil
}

func decodeJSON(ops []loadgen.Op, recs []decoded) ([]decoded, error) {
	for i := range ops {
		var batch []serve.IngestRecord
		if err := json.Unmarshal(ops[i].Body, &batch); err != nil {
			return nil, err
		}
		for k := range batch {
			model, rec, err := batch[k].ToRecord()
			if err != nil {
				return nil, err
			}
			recs = append(recs, decoded{id: batch[k].DriveID, model: model, rec: rec})
		}
	}
	return recs, nil
}

// scoreBlock matches the serving scorer's block size.
const scoreBlock = 256

// scoreLayers times one watchlist's layers over the replayed fleet:
// snapshot, the scorer as a whole, featurization and forest inference
// separately, and ranking.
func scoreLayers(in *inputs, st *serve.Store, c *layerCosts) error {
	const reps = 5
	var units []serve.ScoreUnit
	var ts []time.Duration
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		units = st.ScoreUnits(0)
		ts = append(ts, time.Since(t0))
	}
	c.scoreUnitsMs = medianDur(ts)
	c.drives = len(units)
	if len(units) == 0 {
		return nil
	}
	pred, err := core.LoadPredictor(in.model)
	if err != nil {
		return err
	}
	sc := serve.NewScorer(0)
	var scored []serve.Scored
	ts = ts[:0]
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		scored = sc.Score(pred, units)
		ts = append(ts, time.Since(t0))
	}
	c.scoreMs = medianDur(ts)

	blocks := make([]dataset.Matrix, (len(units)+scoreBlock-1)/scoreBlock)
	out := make([]float64, scoreBlock)
	var feat, forest []time.Duration
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		for b := range blocks {
			m := &blocks[b]
			m.Reset()
			for i := b * scoreBlock; i < min((b+1)*scoreBlock, len(units)); i++ {
				u := &units[i]
				var prev *trace.DayRecord
				if u.HasPrev {
					prev = &u.Prev
				}
				m.AppendFeatureRow(&u.Last, prev)
			}
		}
		feat = append(feat, time.Since(t0))
		t0 = time.Now()
		for b := range blocks {
			pred.ScoreMatrix(&blocks[b], out[:blocks[b].Len()])
		}
		forest = append(forest, time.Since(t0))
	}
	c.featurizeNs = medianDur(feat) * 1e6 / float64(len(units))
	c.forestNs = medianDur(forest) * 1e6 / float64(len(units))

	ts = ts[:0]
	cp := make([]serve.Scored, len(scored))
	for k := 0; k < reps; k++ {
		copy(cp, scored)
		t0 := time.Now()
		serve.Rank(cp, 0, 50)
		ts = append(ts, time.Since(t0))
	}
	c.rankMs = medianDur(ts)
	return nil
}
