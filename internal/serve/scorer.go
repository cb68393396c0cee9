package serve

import (
	"cmp"
	"slices"
	"sync"

	"ssdfail/internal/core"
	"ssdfail/internal/dataset"
	"ssdfail/internal/parallel"
	"ssdfail/internal/trace"
)

// Scored is one drive's score from a fleet scoring pass.
type Scored struct {
	ID    uint32      `json:"drive_id"`
	Model trace.Model `json:"-"`
	Score float64     `json:"score"`
	Day   int32       `json:"day"`
	Age   int32       `json:"age"`
}

// Scorer scores fleet snapshots across a fixed number of workers using
// the repo's chunked parallel-for. Units are featurized into pooled
// per-block matrices and scored through the predictor's matrix path
// (flattened forest traversal over feature blocks), so a full-fleet
// pass allocates per block-in-flight, not per drive.
type Scorer struct {
	workers int
	scratch sync.Pool // *scoreScratch

	// observe, when set (tests only, same package), is called for every
	// unit scored with the predictor actually used. The hot-swap
	// concurrency test uses it to prove that no batch ever mixes two
	// models: within one Score call every unit must report the same
	// predictor pointer, no matter how many reloads land mid-batch.
	observe func(p *core.Predictor, unit int)
}

// scoreScratch is the pooled per-block working set: one feature matrix
// holding up to scoreBlockRows rows and the score vector it fills.
type scoreScratch struct {
	m   dataset.Matrix
	out []float64
}

// scoreBlockRows is how many drives one worker featurizes and scores at
// a time. Big enough that the flattened forest amortizes its per-tree
// loop across a cache-resident block, small enough to keep every worker
// busy on mid-sized fleets.
const scoreBlockRows = 256

// NewScorer builds a scorer with the given worker count (<= 0 means all
// CPUs, resolved at score time by internal/parallel).
func NewScorer(workers int) *Scorer {
	return &Scorer{scratch: sync.Pool{New: func() any { return &scoreScratch{} }}, workers: workers}
}

// Workers returns the configured worker count (0 = all CPUs).
func (sc *Scorer) Workers() int { return sc.workers }

// Score scores every unit with the given predictor. Output slot i
// corresponds to units[i], so results are deterministic at any worker
// count.
func (sc *Scorer) Score(p *core.Predictor, units []ScoreUnit) []Scored {
	out := make([]Scored, len(units))
	blocks := (len(units) + scoreBlockRows - 1) / scoreBlockRows
	parallel.For(sc.workers, blocks, func(bi int) {
		lo := bi * scoreBlockRows
		hi := min(lo+scoreBlockRows, len(units))
		s := sc.scratch.Get().(*scoreScratch)
		s.m.Reset()
		for i := lo; i < hi; i++ {
			u := &units[i]
			var prev *trace.DayRecord
			if u.HasPrev {
				prev = &u.Prev
			}
			s.m.AppendFeatureRow(&u.Last, prev)
		}
		if cap(s.out) < hi-lo {
			s.out = make([]float64, hi-lo)
		}
		s.out = s.out[:hi-lo]
		p.ScoreMatrix(&s.m, s.out)
		for i := lo; i < hi; i++ {
			u := &units[i]
			if sc.observe != nil {
				sc.observe(p, i)
			}
			out[i] = Scored{ID: u.ID, Model: u.Model, Score: s.out[i-lo], Day: u.Last.Day, Age: u.Last.Age}
		}
		sc.scratch.Put(s)
	})
	return out
}

// Rank sorts scores descending (ties broken by drive ID for stable
// output), drops entries below threshold, and truncates to the top k
// (k <= 0 keeps all). It reorders items in place and returns the
// ranked prefix. A k-sized heap selects the top k in one pass and only
// those are sorted, so ranking a fleet for a short watchlist costs
// O(n log k), not O(n log n).
func Rank(items []Scored, threshold float64, k int) []Scored {
	if k <= 0 || k > len(items) {
		k = len(items)
	}
	// items[:n] is kept as a heap whose root is the entry ranked last
	// among those kept; every later entry at or above threshold that
	// outranks the root replaces it. The swaps keep items a permutation
	// of its input.
	n := 0
	for i := range items {
		if items[i].Score < threshold {
			continue
		}
		if n < k {
			items[n], items[i] = items[i], items[n]
			n++
			if n == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDown(items[:k], j)
				}
			}
			continue
		}
		if rankCmp(items[i], items[0]) < 0 {
			items[0], items[i] = items[i], items[0]
			siftDown(items[:k], 0)
		}
	}
	items = items[:n]
	slices.SortFunc(items, rankCmp)
	return items
}

// rankCmp orders by descending score, then ascending drive ID.
func rankCmp(a, b Scored) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// siftDown restores the heap property below j: every parent ranks
// after both of its children.
func siftDown(h []Scored, j int) {
	for {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && rankCmp(h[c+1], h[c]) > 0 {
			c++
		}
		if rankCmp(h[c], h[j]) <= 0 {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}
