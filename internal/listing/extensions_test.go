package listing

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
)

func TestListTopKMatchesSortedRelevance(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2000, Theta: 0.4, Seed: 337})
	ix, err := Build(docs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.CollectionPatterns(docs, 10, 3, 347) {
		full, err := ix.ListRelevance(p, 0.05, RelMax)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(full, func(a, b int) bool { return full[a].Rel > full[b].Rel })
		for _, k := range []int{1, 2, 5, len(full) + 3} {
			top, err := ix.ListTopK(p, k)
			if err != nil {
				t.Fatal(err)
			}
			want := k
			if want > len(full) {
				want = len(full)
			}
			if len(top) < want {
				t.Fatalf("ListTopK(%q, %d) = %d results, want ≥ %d", p, k, len(top), want)
			}
			seen := map[int]bool{}
			for i := 0; i < want; i++ {
				if math.Abs(top[i].Rel-full[i].Rel) > 1e-9 {
					t.Fatalf("ListTopK(%q)[%d].Rel = %v, want %v", p, i, top[i].Rel, full[i].Rel)
				}
				if seen[top[i].Doc] {
					t.Fatalf("document %d listed twice", top[i].Doc)
				}
				seen[top[i].Doc] = true
			}
		}
	}
}

func TestListCountMatchesList(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2000, Theta: 0.3, Seed: 349})
	ix, err := Build(docs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.CollectionPatterns(docs, 10, 4, 353) {
		for _, tau := range []float64{0.1, 0.3} {
			listed, err := ix.List(p, tau)
			if err != nil {
				t.Fatal(err)
			}
			n, err := ix.ListCount(p, tau)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(listed) {
				t.Fatalf("ListCount(%q, %v) = %d, List found %d", p, tau, n, len(listed))
			}
		}
	}
	if _, err := ix.ListCount([]byte("A"), 0.01); err == nil {
		t.Error("tau below tauMin accepted")
	}
}
