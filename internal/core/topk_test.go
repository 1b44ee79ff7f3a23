package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
)

func buildTestIndex(t testing.TB, n int, theta float64, seed int64) *Index {
	t.Helper()
	s := gen.Single(gen.Config{N: n, Theta: theta, Seed: seed})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestTopKMatchesSortedFullResults: the top-k list must equal the first k
// entries of the complete occurrence list sorted by probability.
func TestTopKMatchesSortedFullResults(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.4, 223)
	s := ix.Source()
	for _, m := range []int{2, 3, 5} {
		for _, p := range gen.Patterns(s, 10, m, 227) {
			// Full list at the lowest supported threshold.
			full, err := ix.SearchHits(p, ix.TauMin())
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(full, func(a, b int) bool {
				return full[a].LogProb > full[b].LogProb
			})
			for _, k := range []int{1, 3, 10, len(full) + 5} {
				top, err := ix.SearchTopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				want := k
				if want > len(full) {
					want = len(full)
				}
				// Hits below tauMin may legally surface in TopK (they exist
				// in the transformation); only compare the prefix where the
				// full list is authoritative.
				if len(top) < want {
					t.Fatalf("TopK(%q, %d) returned %d hits, want at least %d",
						p, k, len(top), want)
				}
				for i := 0; i < want; i++ {
					if math.Abs(top[i].LogProb-full[i].LogProb) > 1e-9 {
						t.Fatalf("TopK(%q)[%d] prob %v, want %v", p, i,
							top[i].Prob(), full[i].Prob())
					}
				}
			}
		}
	}
}

func TestTopKOrderingAndUniqueness(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.4, 229)
	for _, m := range []int{2, 4, 18} { // 18 exercises the long-pattern path
		for _, p := range gen.Patterns(ix.Source(), 10, m, 233) {
			top, err := ix.SearchTopK(p, 20)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int32]bool{}
			for i, h := range top {
				if i > 0 && h.LogProb > top[i-1].LogProb+1e-9 {
					t.Fatalf("TopK not sorted at %d: %v > %v", i, h.Prob(), top[i-1].Prob())
				}
				if seen[h.Orig] {
					t.Fatalf("TopK duplicated position %d", h.Orig)
				}
				seen[h.Orig] = true
				// Every reported probability must be exact.
				want := ix.Source().OccurrenceProb(p, int(h.Orig))
				if math.Abs(h.Prob()-want) > 1e-9 {
					t.Fatalf("TopK prob %v != oracle %v", h.Prob(), want)
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	ix := buildTestIndex(t, 500, 0.3, 239)
	if got, err := ix.SearchTopK([]byte("A"), 0); err != nil || got != nil {
		t.Errorf("k=0: %v, %v", got, err)
	}
	if _, err := ix.SearchTopK(nil, 5); err == nil {
		t.Error("empty pattern accepted")
	}
	if got, err := ix.SearchTopK([]byte("zz"), 5); err != nil || got != nil {
		t.Errorf("missing pattern: %v, %v", got, err)
	}
}

func TestCountMatchesSearch(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.4, 241)
	for _, m := range []int{1, 3, 6, 16} {
		for _, p := range gen.Patterns(ix.Source(), 10, m, 251) {
			for _, tau := range []float64{0.1, 0.3} {
				positions, err := ix.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				n, err := ix.SearchCount(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(positions) {
					t.Fatalf("Count(%q, %v) = %d, Search found %d", p, tau, n, len(positions))
				}
			}
		}
	}
	if _, err := ix.SearchCount([]byte("A"), 0.01); err == nil {
		t.Error("tau below tauMin accepted by Count")
	}
}

func TestIterateEarlyTermination(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.4, 257)
	p := gen.Patterns(ix.Source(), 1, 2, 263)[0]
	full, err := ix.SearchHits(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Skip("pattern too rare for the early-termination test")
	}
	var seen []Hit
	err = ix.SearchIter(p, 0.1, func(h Hit) bool {
		seen = append(seen, h)
		return len(seen) < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("early termination visited %d hits, want 2", len(seen))
	}
	// Streaming order must agree with the batch query's best-first order.
	for i := range seen {
		if math.Abs(seen[i].LogProb-full[i].LogProb) > 1e-9 {
			t.Fatalf("stream order diverges at %d", i)
		}
	}
	if err := ix.SearchIter(p, 0.01, func(Hit) bool { return true }); err == nil {
		t.Error("tau below tauMin accepted by Iterate")
	}
}

func TestIterateLongPattern(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.2, 269)
	for _, p := range gen.Patterns(ix.Source(), 5, 20, 271) {
		want, err := ix.Search(p, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		if err := ix.SearchIter(p, 0.15, func(h Hit) bool {
			got = append(got, int(h.Orig))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Ints(got)
		if !equalIntSlices(got, want) {
			t.Fatalf("Iterate long = %v, Search = %v", got, want)
		}
	}
}

// topKHits must return exactly what a full canonical sort cut to k returns,
// ties on probability included.
func TestTopKHitsMatchesSort(t *testing.T) {
	for n := 0; n <= 40; n++ {
		hs := make([]Hit, n)
		for i := range hs {
			// Few distinct probabilities, so ties cross the cut.
			hs[i] = Hit{Orig: int32((i * 7919) % 101), LogProb: -float64((i * 31) % 5)}
		}
		want := append([]Hit(nil), hs...)
		sortHitsByProb(want)
		for _, k := range []int{1, 2, 5, n, n + 3} {
			got := topKHits(hs, k)
			w := want[:min(k, n)]
			if len(w) == 0 {
				w = nil
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("n=%d k=%d: topKHits = %v, sorted cut %v", n, k, got, w)
			}
		}
	}
}
