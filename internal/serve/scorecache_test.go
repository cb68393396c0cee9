package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ssdfail/internal/core"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/trace"
)

// altModel trains a second predictor on the fixture fleet with another
// seed and tree count and saves it under the test's temp dir. Its
// scores differ from the fixture model's, so a score cached under the
// old model would show in any comparison against it.
func altModel(t *testing.T) (string, *core.Predictor) {
	t.Helper()
	fcfg := forest.DefaultConfig()
	fcfg.Trees = 9
	fcfg.Seed = 11
	pred, err := core.NewStudy(fixFleet).TrainPredictor(core.PredictorOptions{
		Lookahead: fixLookahead,
		Factory:   forest.NewFactory(fcfg),
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alt.bin")
	if err := pred.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, loaded
}

func loadFixtureModel(t *testing.T) *core.Predictor {
	t.Helper()
	pred, err := core.LoadPredictor(fixModelPath)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// offlineScores rescores the store's resident fleet from scratch with
// pred — Store.Drives, then ScoreRecord on each drive's last two
// reports — and ranks the result like a threshold=0, k=0 watchlist.
func offlineScores(st *Store, pred *core.Predictor) []Scored {
	var items []Scored
	for _, d := range st.Drives() {
		n := len(d.Recent)
		if n == 0 {
			continue
		}
		var prev *trace.DayRecord
		if n > 1 {
			prev = &d.Recent[n-2]
		}
		last := &d.Recent[n-1]
		items = append(items, Scored{ID: d.ID, Model: d.Model,
			Score: pred.ScoreRecord(last, prev), Day: last.Day, Age: last.Age})
	}
	return Rank(items, 0, 0)
}

// requireScoresDiffer fails the test unless the two predictors disagree
// on at least one resident drive, so a stale-model score cannot pass
// for a fresh one.
func requireScoresDiffer(t *testing.T, st *Store, a, b *core.Predictor) {
	t.Helper()
	sa, sb := offlineScores(st, a), offlineScores(st, b)
	byID := make(map[uint32]float64, len(sa))
	for _, s := range sa {
		byID[s.ID] = s.Score
	}
	for _, s := range sb {
		if byID[s.ID] != s.Score {
			return
		}
	}
	t.Fatal("fixture: the two models score every drive identically")
}

type watchReply struct {
	ModelVersion int `json:"model_version"`
	FleetSize    int `json:"fleet_size"`
	Items        []struct {
		DriveID uint32  `json:"drive_id"`
		Score   float64 `json:"score"`
		Day     int32   `json:"day"`
	} `json:"items"`
}

// fullWatchlist fetches the whole ranked fleet (threshold 0, no k cap).
func fullWatchlist(t *testing.T, baseURL string) watchReply {
	t.Helper()
	var wl watchReply
	if resp := getJSON(t, baseURL+"/v1/watchlist?threshold=0&k=0", &wl); resp.StatusCode != http.StatusOK {
		t.Fatalf("watchlist status %d", resp.StatusCode)
	}
	return wl
}

// requireWatchlistEquals compares a served watchlist with an offline
// ranking bit for bit: same drives, same order, same float64 scores.
func requireWatchlistEquals(t *testing.T, got watchReply, want []Scored) {
	t.Helper()
	if got.FleetSize != len(want) || len(got.Items) != len(want) {
		t.Fatalf("watchlist fleet_size %d with %d items, offline rescoring has %d drives",
			got.FleetSize, len(got.Items), len(want))
	}
	for i := range want {
		g := got.Items[i]
		if g.DriveID != want[i].ID || g.Score != want[i].Score || g.Day != want[i].Day {
			t.Fatalf("rank %d: served drive %d score %v day %d, offline drive %d score %v day %d",
				i, g.DriveID, g.Score, g.Day, want[i].ID, want[i].Score, want[i].Day)
		}
	}
}

// A pass over an unchanged fleet is answered from the cache alone, and
// after a change only the changed drives are rescored; the watchlist and
// the remedy tick share one cache.
func TestScoreCacheRescoresOnlyChangedDrives(t *testing.T) {
	s, ts := newTestServer(t, remedyConfig(10))
	prevDay, lastDay := fleetDay(1), fleetDay(0)
	for _, batch := range [][]IngestRecord{prevDay, lastDay} {
		if resp, body := postJSON(t, ts.URL+"/v1/ingest/batch", batch); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
	}
	fleet := uint64(len(lastDay))
	want := offlineScores(s.store, loadFixtureModel(t))

	first := fullWatchlist(t, ts.URL)
	requireWatchlistEquals(t, first, want)
	if got := s.rescoredDrives.Value(); got != fleet {
		t.Fatalf("first watchlist rescored %d drives, want the whole fleet of %d", got, fleet)
	}
	second := fullWatchlist(t, ts.URL)
	requireWatchlistEquals(t, second, want)
	if got := s.rescoredDrives.Value(); got != fleet {
		t.Fatalf("second watchlist with no ingest between rescored %d drives, want 0", got-fleet)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/remedy/evaluate", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, body)
	}
	if got := s.rescoredDrives.Value(); got != fleet {
		t.Fatalf("remedy tick after a watchlist rescored %d drives, want 0", got-fleet)
	}
	// scored_drives_total still counts every drive ranked per pass.
	if got := s.scoredDrives.Value(); got != 3*fleet {
		t.Fatalf("scored_drives_total = %d, want 3 passes x %d", got, fleet)
	}

	// Two drives advance a day: exactly those two are rescored.
	var next []IngestRecord
	for di := range fixFleet.Drives[:2] {
		d := &fixFleet.Drives[di]
		r := d.Days[len(d.Days)-1]
		r.Day++
		r.Age++
		next = append(next, WireRecord(d.ID, d.Model, &r))
	}
	if resp, body := postJSON(t, ts.URL+"/v1/ingest/batch", next); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	requireWatchlistEquals(t, fullWatchlist(t, ts.URL), offlineScores(s.store, loadFixtureModel(t)))
	if got := s.rescoredDrives.Value(); got != fleet+2 {
		t.Fatalf("after 2 drives changed, rescored %d drives, want 2", got-fleet)
	}
	if m := getText(t, ts.URL+"/metrics"); !strings.Contains(m, fmt.Sprintf("\nssdserved_rescored_drives_total %d\n", fleet+2)) {
		t.Fatalf("metrics missing the rescore count:\n%s", grepLines(m, "scored_drives"))
	}
}

// Restore replaces a drive's records wholesale — here with a report for
// the same day but different contents — so it must drop the cached
// score even though the drive's last day did not move.
func TestScoreCacheRestoreInvalidates(t *testing.T) {
	pred := loadFixtureModel(t)
	var d *trace.Drive
	for i := range fixFleet.Drives {
		if len(fixFleet.Drives[i].Days) >= 2 {
			d = &fixFleet.Drives[i]
			break
		}
	}
	if d == nil {
		t.Fatal("fixture: no drive with two reports")
	}
	prev, last := d.Days[len(d.Days)-2], d.Days[len(d.Days)-1]
	st := NewStore(4, 0)
	for _, r := range []trace.DayRecord{prev, last} {
		if err := st.Upsert(d.ID, d.Model, r); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewScorer(1)
	score := func(wantRescored int) float64 {
		t.Helper()
		out, rescored := st.ScoreFleet(sc, pred, 1, 0)
		if len(out) != 1 || rescored != wantRescored {
			t.Fatalf("pass scored %d drives and rescored %d, want 1 and %d", len(out), rescored, wantRescored)
		}
		return out[0].Score
	}
	if got, want := score(1), pred.ScoreRecord(&last, &prev); got != want {
		t.Fatalf("first pass score %v, want %v", got, want)
	}
	score(0)

	// Restoring identical records still drops the cache.
	st.Restore(DriveSnapshot{ID: d.ID, Model: d.Model, Recent: []trace.DayRecord{prev, last}})
	score(1)
	score(0)

	worse := last
	worse.GrownBadBlocks += 400
	worse.Errors[trace.ErrUncorrectable] += 40
	worse.CumErrors[trace.ErrUncorrectable] += 40
	worse.ReadOnly = true
	want := pred.ScoreRecord(&worse, &prev)
	if want == pred.ScoreRecord(&last, &prev) {
		t.Fatal("fixture: the restored report scores like the original")
	}
	st.Restore(DriveSnapshot{ID: d.ID, Model: d.Model, Recent: []trace.DayRecord{prev, worse}})
	if got := score(1); got != want {
		t.Fatalf("after Restore: score %v, want the restored records' %v", got, want)
	}
	score(0)
}

// checkCachedScores verifies the cache invariant shard by shard under
// each shard's read lock: a drive holding a cached score holds the score
// that model version gives its current records.
func checkCachedScores(st *Store, models map[int]*core.Predictor) error {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for id, ds := range sh.m {
			if ds.scoreVer == 0 {
				continue
			}
			u := ds.unit(id)
			var prev *trace.DayRecord
			if u.HasPrev {
				prev = &u.Prev
			}
			if want := models[ds.scoreVer].ScoreRecord(&u.Last, prev); ds.score != want {
				sh.mu.RUnlock()
				return fmt.Errorf("drive %d day %d: cached version %d score %v, its records score %v",
					id, u.Last.Day, ds.scoreVer, ds.score, want)
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// Passes under two model versions race ingest on every drive. Each
// pass writes back what it scored while writers advance drives under
// it. A checker verifies the cache invariant throughout, and once
// writers stop a pass must equal an offline rescoring bit for bit: a
// write-back that landed on changed records, or a score kept across a
// model version, would show here.
func TestScoreCacheWriteBackRacesIngest(t *testing.T) {
	predA := loadFixtureModel(t)
	_, predB := altModel(t)
	models := map[int]*core.Predictor{1: predA, 2: predB}
	const days = 40
	st := NewStore(8, 0)
	var wg sync.WaitGroup
	var writing atomic.Int32
	var passes atomic.Int64
	const writers = 4
	writing.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			// Day-major, yielding after every report and waiting for
			// a pass between rounds, so every drive keeps changing
			// under passes in flight until its last report.
			for j := days; j >= 1; j-- {
				for seen := passes.Load(); passes.Load() == seen; {
					runtime.Gosched()
				}
				for di := w; di < len(fixFleet.Drives); di += writers {
					d := &fixFleet.Drives[di]
					if k := len(d.Days) - j; k >= 0 {
						if err := st.Upsert(d.ID, d.Model, d.Days[k]); err != nil {
							t.Errorf("drive %d day %d: %v", d.ID, d.Days[k].Day, err)
							return
						}
					}
					runtime.Gosched()
				}
			}
		}(w)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := NewScorer(2)
			for i := 0; writing.Load() > 0; i++ {
				pred, version := predA, 1
				if (g+i)%2 == 1 {
					pred, version = predB, 2
				}
				st.ScoreFleet(sc, pred, version, 0)
				passes.Add(1)
			}
		}(g)
	}
	wg.Add(1)
	go func() { // the cache invariant holds at every instant, not just at rest
		defer wg.Done()
		for writing.Load() > 0 {
			if err := checkCachedScores(st, models); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	requireScoresDiffer(t, st, predA, predB)
	if err := checkCachedScores(st, models); err != nil {
		t.Fatal(err)
	}
	sc := NewScorer(2)
	for _, c := range []struct {
		pred    *core.Predictor
		version int
	}{{predB, 2}, {predA, 1}, {predB, 2}} {
		got, _ := st.ScoreFleet(sc, c.pred, c.version, 0)
		want := offlineScores(st, c.pred)
		if got = Rank(got, 0, 0); len(got) != len(want) {
			t.Fatalf("version %d: pass scored %d drives, store holds %d", c.version, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("version %d rank %d: pass %+v, offline %+v", c.version, i, got[i], want[i])
			}
		}
	}
	if _, rescored := st.ScoreFleet(sc, predB, 2, 0); rescored != 0 {
		t.Fatalf("a repeat pass over a quiescent store rescored %d drives", rescored)
	}
	t.Logf("%d racing passes", passes.Load())
}

// Ingest, watchlist queries and a mid-run hot reload to a different
// model run concurrently. Every query issued after the reload returned
// must be scored by the new predictor alone (the scorer's observe
// hook), and the quiescent watchlist must equal an offline rescoring
// under the new model bit for bit: no item keeps an old-model score.
func TestWatchlistCacheUnderIngestAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	valid, err := os.ReadFile(fixModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	altPath, altPred := altModel(t)
	alt, err := os.ReadFile(altPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{ModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// want is the predictor every unit of the in-flight query must be
	// scored by: nil before the reload, the new predictor for queries
	// sent after it. Queries run one at a time, so each observe call
	// belongs to the query in flight.
	var want atomic.Pointer[core.Predictor]
	var observed, strays atomic.Int64
	s.scorer.observe = func(p *core.Predictor, unit int) {
		if w := want.Load(); w != nil {
			observed.Add(1)
			if p != w {
				strays.Add(1)
			}
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const days = 30
	errs := make(chan error, 8)
	var ingestWG, wg sync.WaitGroup
	halfway := make(chan struct{})
	var half sync.Once
	for w := 0; w < 2; w++ {
		ingestWG.Add(1)
		go func(w int) {
			defer ingestWG.Done()
			for j := days; j >= 1; j-- {
				if j == days/2 {
					half.Do(func() { close(halfway) })
				}
				var frames []byte
				count := 0
				for di := w; di < len(fixFleet.Drives); di += 2 {
					d := &fixFleet.Drives[di]
					if k := len(d.Days) - j; k >= 0 {
						frames = AppendBinRecord(frames, d.ID, d.Model, &d.Days[k])
						count++
					}
				}
				if count == 0 {
					continue
				}
				body := append(AppendBinHeader(nil, count), frames...)
				resp, err := http.Post(ts.URL+"/v1/ingest/bin", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("ingest stream %d day -%d: status %d", w, j, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	ingestDone := make(chan struct{})
	go func() { ingestWG.Wait(); close(ingestDone) }()
	var newPred atomic.Pointer[core.Predictor]
	reloadDone := make(chan struct{})
	wg.Add(1)
	go func() { // one hot reload to the other model, mid-ingest
		defer wg.Done()
		defer close(reloadDone)
		select {
		case <-halfway:
		case <-ingestDone: // a stream failed before halfway
		}
		if err := os.WriteFile(path, alt, 0o644); err != nil {
			errs <- err
			return
		}
		resp, err := http.Post(ts.URL+"/v1/model/reload", "application/json", nil)
		if err != nil {
			errs <- err
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("reload: status %d", resp.StatusCode)
			return
		}
		pred, _, _ := s.registry.Current()
		newPred.Store(pred)
	}()

	var afterReload int
	wg.Add(1)
	go func() { // watchlist queries throughout, one at a time
		defer wg.Done()
		for {
			select {
			case <-ingestDone:
				select {
				case <-reloadDone:
					if afterReload >= 3 || newPred.Load() == nil {
						return // enough post-reload queries, or the reload failed
					}
				default:
				}
			default:
			}
			p := newPred.Load()
			want.Store(p)
			resp, err := http.Get(ts.URL + "/v1/watchlist?threshold=0&k=20")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("watchlist: status %d", resp.StatusCode)
				return
			}
			if p != nil {
				afterReload++
			}
		}
	}()
	wg.Wait()
	<-ingestDone
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := strays.Load(); n != 0 {
		t.Fatalf("%d of %d units in post-reload queries scored by the old predictor", n, observed.Load())
	}

	requireScoresDiffer(t, s.store, loadFixtureModel(t), altPred)
	want.Store(newPred.Load())
	rescored := s.rescoredDrives.Value()
	wl := fullWatchlist(t, ts.URL)
	if wl.ModelVersion != 2 {
		t.Fatalf("quiescent watchlist from model version %d, want 2", wl.ModelVersion)
	}
	requireWatchlistEquals(t, wl, offlineScores(s.store, altPred))
	if n := strays.Load(); n != 0 {
		t.Fatalf("quiescent watchlist: %d units scored by the old predictor", n)
	}
	// The fleet is quiescent and every drive now cached under version 2.
	before := s.rescoredDrives.Value()
	requireWatchlistEquals(t, fullWatchlist(t, ts.URL), offlineScores(s.store, altPred))
	if got := s.rescoredDrives.Value(); got != before {
		t.Fatalf("repeat quiescent watchlist rescored %d drives, want 0", got-before)
	}
	t.Logf("%d queries after the reload; the first quiescent pass rescored %d drives",
		afterReload, before-rescored)
}
