package catalog

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/ustring"
)

// TestShardedMatchesSingleIndex: for a single-document collection, a 4-shard
// catalog must return bit-identical results — positions and probabilities —
// to the unsharded core.Index built directly over the same document. The
// document is always indexed whole, so no floating-point drift is tolerated.
func TestShardedMatchesSingleIndex(t *testing.T) {
	s := gen.Single(gen.Config{N: 4000, Theta: 0.35, Seed: 31})
	single, err := core.Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	col := testCatalog(t, []*ustring.String{s}, 4)

	for _, m := range []int{2, 4, 8, 16} {
		for _, p := range gen.Patterns(s, 10, m, 37) {
			for _, tau := range []float64{0.1, 0.15, 0.3} {
				want := directHits(t, single, 0, p, tau)
				got, err := col.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Search(%q, %v): sharded %v, single %v", p, tau, got, want)
				}
				n, err := col.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Fatalf("Count(%q, %v) = %d, want %d", p, tau, n, len(want))
				}
			}
			top, err := single.SearchTopK(p, 5)
			if err != nil {
				t.Fatal(err)
			}
			wantTop := make([]DocHit, 0, len(top))
			for _, h := range top {
				wantTop = append(wantTop, DocHit{Doc: 0, Pos: int(h.Orig), Prob: h.Prob()})
			}
			sort.Slice(wantTop, func(a, b int) bool { return hitLess(wantTop[a], wantTop[b]) })
			gotTop, err := col.TopK(p, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTop, wantTop) && !(len(gotTop) == 0 && len(wantTop) == 0) {
				t.Fatalf("TopK(%q): sharded %v, single %v", p, gotTop, wantTop)
			}
		}
	}
}

// directHits runs SearchHits on a bare index and normalises to the
// catalog's (doc, pos) order for comparison.
func directHits(t *testing.T, ix *core.Index, doc int, p []byte, tau float64) []DocHit {
	t.Helper()
	hits, err := ix.SearchHits(p, tau)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]DocHit, 0, len(hits))
	for _, h := range hits {
		out = append(out, DocHit{Doc: doc, Pos: int(h.Orig), Prob: h.Prob()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Pos < out[b].Pos })
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestShardCountEquivalence: the acceptance test — a batch of queries
// against a 4-shard catalog must return exactly the same hits as the same
// queries against the unsharded (1-shard) catalog over the same collection,
// and as the per-document indexes built individually.
func TestShardCountEquivalence(t *testing.T) {
	docs := testDocs(t, 2500, 41)
	unsharded := testCatalog(t, docs, 1)
	sharded := testCatalog(t, docs, 4)
	uneven := testCatalog(t, docs, 7)

	// The same per-document truth, built outside the catalog.
	direct := make([]*core.Index, len(docs))
	for i, d := range docs {
		ix, err := core.Build(d, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = ix
	}

	checked := 0
	for _, m := range []int{2, 3, 5, 8} {
		for _, p := range gen.CollectionPatterns(docs, 12, m, 43) {
			for _, tau := range []float64{0.1, 0.2} {
				want, err := unsharded.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				var fromDirect []DocHit
				for i, ix := range direct {
					fromDirect = append(fromDirect, directHits(t, ix, i, p, tau)...)
				}
				if !reflect.DeepEqual(want, fromDirect) && !(len(want) == 0 && len(fromDirect) == 0) {
					t.Fatalf("unsharded catalog diverges from direct indexes on %q", p)
				}
				for name, col := range map[string]*Collection{"4-shard": sharded, "7-shard": uneven} {
					got, err := col.Search(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s Search(%q, %v) = %v, want %v", name, p, tau, got, want)
					}
					wantN, err := unsharded.Count(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					gotN, err := col.Count(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					if gotN != wantN || gotN != len(want) {
						t.Fatalf("%s Count(%q, %v) = %d, want %d (= %d hits)", name, p, tau, gotN, wantN, len(want))
					}
				}
				checked++
			}
			for _, k := range []int{1, 3, 10} {
				want, err := unsharded.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				for name, col := range map[string]*Collection{"4-shard": sharded, "7-shard": uneven} {
					got, err := col.TopK(p, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s TopK(%q, %d) = %v, want %v", name, p, k, got, want)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no queries checked")
	}
}

// TestTopKMatchesBruteForce: the heap merge must agree with sorting the full
// threshold result set at tau = tauMin.
func TestTopKMatchesBruteForce(t *testing.T) {
	docs := testDocs(t, 1500, 53)
	col := testCatalog(t, docs, 4)
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(docs, 6, m, 59) {
			all, err := col.Search(p, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(all, func(a, b int) bool { return hitLess(all[a], all[b]) })
			for _, k := range []int{1, 2, 5, 100} {
				want := all
				if len(want) > k {
					want = want[:k]
				}
				got, err := col.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				// TopK completeness holds down to tauMin; Search at
				// tau = tauMin excludes hits within Eps of the threshold,
				// so compare only the common prefix when TopK found more.
				if len(got) < len(want) {
					t.Fatalf("TopK(%q, %d) returned %d hits, brute force %d", p, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("TopK(%q, %d)[%d] = %+v, want %+v", p, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// oracleHits is the index-free answer of internal/baseline: every occurrence
// of p above tau in live (documents numbered by slice index), in (document,
// position) order, with the model's own probability.
func oracleHits(live []*ustring.String, p []byte, tau float64) []DocHit {
	var out []DocHit
	for d, doc := range live {
		for _, pos := range baseline.MatchDP(doc, p, tau) {
			out = append(out, DocHit{Doc: d, Pos: pos, Prob: doc.OccurrenceProb(p, pos)})
		}
	}
	return out
}

// sameHits compares hit sequences position for position; probabilities may
// differ by the rounding between the oracle's direct product and the indexes'
// log-domain prefix sums.
func sameHits(got, want []DocHit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || got[i].Pos != want[i].Pos || math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
			return false
		}
	}
	return true
}

// TestExecEquivalence is the grid of the one query path: every operation ×
// Trace and Cost nil / set, on an exact and an approx collection over the
// same documents. Exec must agree with the Search/TopK/Count wrappers and
// with the index-free oracle (the approx collection by the ⊇ exact(τ),
// ⊆ exact(τ−ε) rule), must answer identically with observation on and off,
// and must count the same cost on every run.
func TestExecEquivalence(t *testing.T) {
	docs := testDocs(t, 2500, 41)
	const eps, tauMin = 0.05, 0.1
	c := New(Options{TauMin: tauMin, Shards: 4})
	exact, err := c.Add("exact", docs)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := c.AddWithSpec("approx", docs, core.BackendSpec{Kind: core.BackendApprox, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	// exec runs q under all four observation settings and twice with a cost,
	// checks that answers and counters agree, and returns the answer.
	exec := func(col *Collection, q core.Query) Result {
		t.Helper()
		want, err := col.Exec(q, ExecOpts{})
		if err != nil {
			t.Fatalf("Exec(%+v): %v", q, err)
		}
		var costs [2]obs.Cost
		for _, o := range []ExecOpts{{Trace: &obs.Trace{}}, {Cost: &costs[0]}, {Trace: &obs.Trace{}, Cost: &costs[1]}} {
			if got, err := col.Exec(q, o); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("Exec(%+v) observed = %v, %v; unobserved %v", q, got, err, want)
			}
		}
		if costs[0] != costs[1] || costs[0].ShardsTouched == 0 {
			t.Fatalf("Exec(%+v) cost differs between runs: %+v, then %+v", q, costs[0], costs[1])
		}
		return want
	}

	found := 0
	for _, m := range []int{2, 3, 5, 8} {
		for _, p := range gen.CollectionPatterns(docs, 6, m, 43) {
			for _, tau := range []float64{0.1, 0.2, 0.4} {
				search := core.Query{Op: core.OpSearch, Pattern: p, Tau: tau}
				count := core.Query{Op: core.OpCount, Pattern: p, Tau: tau}
				want := oracleHits(docs, p, tau)
				got := exec(exact, search)
				if !sameHits(got.Hits, want) || got.Count != len(want) {
					t.Fatalf("Exec(%+v) = %v, oracle %v", search, got, want)
				}
				if n := exec(exact, count); n.Count != len(want) || n.Hits != nil {
					t.Fatalf("Exec(%+v) = %v, oracle counts %d", count, n, len(want))
				}
				found += len(want)
				hits, _ := exact.Search(p, tau)
				n, _ := exact.Count(p, tau)
				if !reflect.DeepEqual(hits, got.Hits) || n != got.Count {
					t.Fatalf("Search/Count(%q, %v) = %v, %d; Exec %v", p, tau, hits, n, got)
				}
				// The ε-index may report what the oracle finds above τ−ε
				// (an occurrence at the cut up to rounding included) and
				// must report everything above τ.
				loose := hitSet(oracleHits(docs, p, tau-eps-1e-6))
				ap := exec(approx, search)
				apSet := hitSet(ap.Hits)
				for _, h := range want {
					if !apSet[[2]int{h.Doc, h.Pos}] {
						t.Fatalf("approx Exec(%+v) missed %+v", search, h)
					}
				}
				for _, h := range ap.Hits {
					if !loose[[2]int{h.Doc, h.Pos}] {
						t.Fatalf("approx Exec(%+v) reported %+v, below τ−ε", search, h)
					}
				}
				if n := exec(approx, count); n.Count != len(ap.Hits) {
					t.Fatalf("approx Exec(%+v) = %d, search found %d", count, n.Count, len(ap.Hits))
				}
			}
			// Top-k against the oracle's ranking of everything above
			// tauMin: the same probabilities in the same order (a tie may
			// resolve to either position), each a true occurrence.
			ranked := oracleHits(docs, p, tauMin)
			truth := map[[2]int]float64{}
			for _, h := range ranked {
				truth[[2]int{h.Doc, h.Pos}] = h.Prob
			}
			sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].Prob > ranked[b].Prob })
			for _, k := range []int{1, 3, 10} {
				topk := core.Query{Op: core.OpTopK, Pattern: p, K: k}
				got := exec(exact, topk)
				if len(got.Hits) < min(k, len(ranked)) || len(got.Hits) > k || got.Count != len(got.Hits) {
					t.Fatalf("Exec(%+v) = %v, oracle ranks %d", topk, got, len(ranked))
				}
				for i, h := range got.Hits[:min(k, len(ranked))] {
					if pr, ok := truth[[2]int{h.Doc, h.Pos}]; !ok || math.Abs(pr-h.Prob) > 1e-9 || math.Abs(ranked[i].Prob-h.Prob) > 1e-9 {
						t.Fatalf("Exec(%+v)[%d] = %+v, oracle ranks %+v there", topk, i, h, ranked[i])
					}
				}
				if hits, _ := exact.TopK(p, k); !reflect.DeepEqual(hits, got.Hits) {
					t.Fatalf("TopK(%q, %d) = %v, Exec %v", p, k, hits, got.Hits)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no query returned hits; the grid was vacuous")
	}
	if _, err := approx.Exec(core.Query{Op: core.OpTopK, Pattern: []byte("AC"), K: 3}, ExecOpts{}); !errors.Is(err, core.ErrUnsupportedQuery) {
		t.Fatalf("approx top-k: %v, want ErrUnsupportedQuery", err)
	}
}
