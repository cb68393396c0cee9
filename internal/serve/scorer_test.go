package serve

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"ssdfail/internal/trace"
)

// rankReference is Rank as a plain full sort: order the whole slice,
// cut below threshold, keep the first k.
func rankReference(items []Scored, threshold float64, k int) []Scored {
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score > items[b].Score
		}
		return items[a].ID < items[b].ID
	})
	cut := len(items)
	for cut > 0 && items[cut-1].Score < threshold {
		cut--
	}
	items = items[:cut]
	if k > 0 && len(items) > k {
		items = items[:k]
	}
	return items
}

// randomScored draws n items with unique shuffled IDs and scores from
// a coarse grid, so long runs of equal scores exercise the ID
// tie-break.
func randomScored(rng *rand.Rand, n, levels int) []Scored {
	items := make([]Scored, n)
	for i, id := range rng.Perm(n) {
		items[i] = Scored{
			ID:    uint32(id),
			Model: trace.Model(rng.IntN(3)),
			Score: float64(rng.IntN(levels)) / float64(levels-1),
			Day:   rng.Int32N(1000),
			Age:   rng.Int32N(2000),
		}
	}
	return items
}

func TestRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	for _, n := range []int{0, 1, 2, 7, 51, 300, 2000} {
		for _, levels := range []int{2, 5, 101} {
			for _, threshold := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2} {
				for _, k := range []int{-1, 0, 1, 50, n - 1, n, n + 1} {
					in := randomScored(rng, n, levels)
					want := rankReference(slices.Clone(in), threshold, k)
					work := slices.Clone(in)
					got := Rank(work, threshold, k)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d levels=%d threshold=%v k=%d: Rank differs from a full sort\ngot  %v\nwant %v",
							n, levels, threshold, k, got, want)
					}
					// Rank reorders in place: the ranked prefix is
					// items' own prefix and items stays a permutation.
					if len(got) > 0 && &got[0] != &work[0] {
						t.Fatalf("n=%d k=%d: ranked prefix is not items' prefix", n, k)
					}
					byID := func(a, b Scored) int { return int(a.ID) - int(b.ID) }
					slices.SortFunc(work, byID)
					slices.SortFunc(in, byID)
					if !slices.Equal(work, in) {
						t.Fatalf("n=%d threshold=%v k=%d: items is no longer a permutation of the input", n, threshold, k)
					}
				}
			}
		}
	}
}

// BenchmarkRank ranks a 30k-drive fleet, the size of the serving
// benchmark's resident fleet, for a 50-drive watchlist and for a full
// ranking. Each op includes restoring the unranked input (a 720 KB
// copy), identical in both cases.
func BenchmarkRank(b *testing.B) {
	const n = 30000
	src := randomScored(rand.New(rand.NewPCG(30, 1)), n, 101)
	work := make([]Scored, n)
	for _, bc := range []struct {
		name string
		k    int
	}{{"top50", 50}, {"all", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, src)
				Rank(work, 0, bc.k)
			}
		})
	}
}
