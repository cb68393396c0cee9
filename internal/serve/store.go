package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ssdfail/internal/core"
	"ssdfail/internal/trace"
)

// Store defaults.
const (
	// DefaultShards spreads drive state over this many independently
	// locked shards so concurrent ingest and fleet snapshots contend
	// only per shard.
	DefaultShards = 64
	// DefaultHistory is how many recent daily reports each drive keeps.
	// The standard feature pipeline needs the report being scored plus
	// the previous one (for the bad-block delta); the extra slack keeps
	// a rolling window available for trailing-window features and the
	// drive-inspection endpoint.
	DefaultHistory = 8
)

// Store is a sharded in-memory map of per-drive rolling state. All
// methods are safe for concurrent use.
type Store struct {
	shards  []storeShard
	mask    uint32
	history int
	drives  atomic.Int64
	records atomic.Int64
}

type storeShard struct {
	mu sync.RWMutex
	m  map[uint32]*driveState
}

type driveState struct {
	model  trace.Model
	recent []trace.DayRecord // ascending by Day, at most history entries

	// score caches the drive's last score and scoreVer the registry
	// model version that produced it (ModelInfo.Version; 0 = no cached
	// score). Every mutation of recent resets scoreVer, so a nonzero
	// scoreVer always describes the drive's current records.
	score    float64
	scoreVer int
}

// unit copies out the drive's scoring input: its latest report and the
// one before it. The drive must hold at least one report.
func (st *driveState) unit(id uint32) ScoreUnit {
	n := len(st.recent)
	u := ScoreUnit{ID: id, Model: st.model, Last: st.recent[n-1]}
	if n > 1 {
		u.Prev = st.recent[n-2]
		u.HasPrev = true
	}
	return u
}

// NewStore builds a store with the given shard count (rounded up to a
// power of two; <= 0 means DefaultShards) and per-drive history depth
// (<= 1 means DefaultHistory).
func NewStore(shards, history int) *Store {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if history <= 1 {
		history = DefaultHistory
	}
	s := &Store{shards: make([]storeShard, n), mask: uint32(n - 1), history: history}
	for i := range s.shards {
		s.shards[i].m = make(map[uint32]*driveState)
	}
	return s
}

// shard maps a drive ID to its shard with a multiplicative hash, so
// sequentially assigned IDs still spread across shards.
func (s *Store) shard(id uint32) *storeShard {
	return &s.shards[(id*2654435761)&s.mask]
}

// Upsert appends one daily report to a drive's rolling state, creating
// the drive on first sight. It enforces the per-drive invariants of
// trace.Drive.Validate incrementally against the drive's latest
// retained report: strictly increasing day, matching day/age deltas,
// constant model and factory bad blocks, and monotone cumulative
// counters. A violating report is rejected and the state unchanged.
func (s *Store) Upsert(id uint32, model trace.Model, rec trace.DayRecord) error {
	return s.UpsertCommit(id, model, rec, nil)
}

// UpsertCommit is Upsert with a commit hook: after the record passes
// validation but before it mutates any state, commit (when non-nil) is
// invoked while the shard lock is still held. A commit error aborts the
// upsert with the store unchanged. The durability layer journals the
// record in the hook, so the write-ahead log's append order matches the
// store's apply order per drive and a record is never applied without
// first being logged.
func (s *Store) UpsertCommit(id uint32, model trace.Model, rec trace.DayRecord, commit func() error) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.m[id]
	if ok {
		if st.model != model {
			return fmt.Errorf("serve: drive %d model changed from %s to %s", id, st.model, model)
		}
		if len(st.recent) > 0 {
			last := &st.recent[len(st.recent)-1]
			if rec.Day <= last.Day {
				return fmt.Errorf("serve: drive %d day %d not after last ingested day %d", id, rec.Day, last.Day)
			}
			if rec.Day-last.Day != rec.Age-last.Age {
				return fmt.Errorf("serve: drive %d day delta %d != age delta %d",
					id, rec.Day-last.Day, rec.Age-last.Age)
			}
			if rec.FactoryBadBlocks != last.FactoryBadBlocks {
				return fmt.Errorf("serve: drive %d factory bad blocks changed", id)
			}
			if rec.GrownBadBlocks < last.GrownBadBlocks {
				return fmt.Errorf("serve: drive %d grown bad blocks decreased", id)
			}
			if rec.PECycles < last.PECycles {
				return fmt.Errorf("serve: drive %d P/E cycles decreased", id)
			}
			if rec.CumReads < last.CumReads || rec.CumWrites < last.CumWrites || rec.CumErases < last.CumErases {
				return fmt.Errorf("serve: drive %d cumulative op counter decreased", id)
			}
			for k := 0; k < trace.NumErrorKinds; k++ {
				if rec.CumErrors[k] < last.CumErrors[k] {
					return fmt.Errorf("serve: drive %d cumulative %s count decreased", id, trace.ErrorKind(k))
				}
			}
		}
	}
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	if !ok {
		st = &driveState{model: model, recent: make([]trace.DayRecord, 0, 2)}
		sh.m[id] = st
		s.drives.Add(1)
	}
	if len(st.recent) == s.history {
		copy(st.recent, st.recent[1:])
		st.recent[len(st.recent)-1] = rec
	} else {
		st.recent = append(st.recent, rec)
		s.records.Add(1)
	}
	st.scoreVer = 0
	return nil
}

// DriveSnapshot is a copy of one drive's rolling state.
type DriveSnapshot struct {
	ID     uint32
	Model  trace.Model
	Recent []trace.DayRecord
}

// Get returns a copy of the drive's state.
func (s *Store) Get(id uint32) (DriveSnapshot, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.m[id]
	if !ok {
		return DriveSnapshot{}, false
	}
	return DriveSnapshot{
		ID:     id,
		Model:  st.model,
		Recent: append([]trace.DayRecord(nil), st.recent...),
	}, true
}

// Drives copies the full rolling state of every tracked drive, sorted
// by drive ID. Shards are drained one at a time under their read lock,
// so ingest proceeds on other shards concurrently; the copy is the unit
// the durability layer snapshots, and the sort makes two snapshots of
// the same state byte-identical.
func (s *Store) Drives() []DriveSnapshot {
	out := make([]DriveSnapshot, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, st := range sh.m {
			out = append(out, DriveSnapshot{
				ID:     id,
				Model:  st.model,
				Recent: append([]trace.DayRecord(nil), st.recent...),
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Restore installs one drive's rolling state wholesale, replacing any
// existing state for that drive and trimming to the history cap. It is
// the recovery-time inverse of Drives and performs no invariant
// validation: the snapshot was validated when its records were first
// ingested.
func (s *Store) Restore(d DriveSnapshot) {
	recent := d.Recent
	if len(recent) > s.history {
		recent = recent[len(recent)-s.history:]
	}
	sh := s.shard(d.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.m[d.ID]
	if !ok {
		st = &driveState{}
		sh.m[d.ID] = st
		s.drives.Add(1)
	} else {
		s.records.Add(-int64(len(st.recent)))
	}
	st.model = d.Model
	st.recent = append([]trace.DayRecord(nil), recent...)
	st.scoreVer = 0
	s.records.Add(int64(len(st.recent)))
}

// Len returns the number of drives currently tracked.
func (s *Store) Len() int { return int(s.drives.Load()) }

// Records returns the number of daily reports currently retained.
func (s *Store) Records() int { return int(s.records.Load()) }

// ScoreUnit is the scoring input for one drive: its latest report plus
// the previous one, copied out of the store so scoring never holds a
// shard lock.
type ScoreUnit struct {
	ID         uint32
	Model      trace.Model
	Last, Prev trace.DayRecord
	HasPrev    bool
}

// ScoreUnits snapshots the whole fleet for batch scoring. Drives whose
// latest report is older than sinceDay are skipped (sinceDay <= 0 keeps
// everything) — the paper's watchlist only considers drives still
// reporting. Shards are drained one at a time under their read lock, so
// ingest proceeds on other shards concurrently.
func (s *Store) ScoreUnits(sinceDay int32) []ScoreUnit {
	units, _ := s.scan(sinceDay, 0, make([]ScoreUnit, 0, s.Len()), nil)
	return units
}

// ScoreFleet scores every drive whose latest report is at or after
// sinceDay with pred, the predictor the registry published as model
// version. A drive whose cached score came from that version and whose
// records have not changed since yields the cached score; only the rest
// are copied out and run through sc, so a pass costs the drives changed
// since the last pass, not the fleet. Results come in no particular
// order (Rank sorts). rescored counts the drives actually scored.
func (s *Store) ScoreFleet(sc *Scorer, pred *core.Predictor, version int, sinceDay int32) (scored []Scored, rescored int) {
	stale, cached := s.scan(sinceDay, version, nil, make([]Scored, 0, s.Len()))
	if len(stale) == 0 {
		return cached, 0
	}
	fresh := sc.Score(pred, stale)
	s.cacheScores(version, stale, fresh)
	return append(cached, fresh...), len(stale)
}

// scan walks every shard under its read lock, one shard at a time, and
// splits the drives whose latest report is at or after sinceDay: a drive
// holding a cached score from model version goes to cached, every other
// one is copied to stale. Version 0 matches no drive, so it copies out
// the whole fleet.
func (s *Store) scan(sinceDay int32, version int, stale []ScoreUnit, cached []Scored) ([]ScoreUnit, []Scored) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, st := range sh.m {
			n := len(st.recent)
			if n == 0 || st.recent[n-1].Day < sinceDay {
				continue
			}
			if version != 0 && st.scoreVer == version {
				last := &st.recent[n-1]
				//ssdlint:allow maporder scoring order is irrelevant: Rank sorts by score with an ID tie-break before anything is emitted
				cached = append(cached, Scored{ID: id, Model: st.model, Score: st.score, Day: last.Day, Age: last.Age})
				continue
			}
			//ssdlint:allow maporder scoring order is irrelevant: Rank sorts by score with an ID tie-break before anything is emitted
			stale = append(stale, st.unit(id))
		}
		sh.mu.RUnlock()
	}
	return stale, cached
}

// cacheScores writes scored[i] back as the cached score of units[i]'s
// drive, under the shard's write lock. A score is a pure function of the
// model version and the unit, so it is cached only if the drive still
// holds exactly the records that were scored; a drive mutated or
// restored meanwhile keeps its reset cache and is rescored next pass.
func (s *Store) cacheScores(version int, units []ScoreUnit, scored []Scored) {
	for i := range units {
		u := &units[i]
		sh := s.shard(u.ID)
		sh.mu.Lock()
		if st, ok := sh.m[u.ID]; ok && len(st.recent) > 0 && st.unit(u.ID) == *u {
			st.score, st.scoreVer = scored[i].Score, version
		}
		sh.mu.Unlock()
	}
}
