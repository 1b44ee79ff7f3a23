package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/ustring"
)

// TestHTTPApproxStore drives an approx collection through the public HTTP
// API next to a plain collection over the same documents: creation via
// ?backend=approx&epsilon=, spec conflicts, the containment grid on
// /v1/query, approx/epsilon response annotations, the 422 top-k rejection,
// per-op batch errors, cache behaviour and the stats surface.
func TestHTTPApproxStore(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 1600, Theta: 0.3, Seed: 311})
	if len(docs) < 6 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	const eps = 0.05
	st, err := ingest.Open(nil, ingest.Options{
		Dir: t.TempDir(), Catalog: catalog.Options{TauMin: 0.1, Shards: 2},
		CompactThreshold: -1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := NewIngest(st, Config{})

	put := func(coll, id, params string, doc *ustring.String, wantStatus int) *PutResponse {
		t.Helper()
		var body bytes.Buffer
		if err := ustring.Marshal(&body, doc); err != nil {
			t.Fatal(err)
		}
		target := "/v1/collections/" + coll + "/documents/" + id + params
		var resp PutResponse
		do(t, s, http.MethodPut, target, body.String(), wantStatus, &resp)
		return &resp
	}

	resp := put("ap", "d0", fmt.Sprintf("?backend=approx&epsilon=%g", eps), docs[0], http.StatusOK)
	if resp.Backend != core.BackendApprox || resp.Epsilon != eps {
		t.Fatalf("creating PUT response: backend=%q epsilon=%v", resp.Backend, resp.Epsilon)
	}
	for i := 1; i < 5; i++ {
		put("ap", fmt.Sprintf("d%d", i), "", docs[i], http.StatusOK)
		put("ex", fmt.Sprintf("d%d", i), "", docs[i], http.StatusOK)
	}
	put("ex", "d0", "", docs[0], http.StatusOK)

	// Spec conflicts and malformed parameters.
	put("ap", "x", "?backend=plain", docs[0], http.StatusConflict)
	put("ap", "x", "?backend=approx&epsilon=0.2", docs[0], http.StatusConflict)
	put("ap", "x", "?backend=approx&epsilon=1.5", docs[0], http.StatusBadRequest)
	put("ap", "x", "?backend=approx&epsilon=0", docs[0], http.StatusBadRequest)
	put("ap", "x", "?epsilon=0.2", docs[0], http.StatusBadRequest)
	put("ap", "x", "?backend=plain&epsilon=0.2", docs[0], http.StatusBadRequest)
	// The matching spec keeps working.
	put("ap", "d0", fmt.Sprintf("?backend=approx&epsilon=%g", eps), docs[0], http.StatusOK)

	// Containment over the HTTP surface: both collections hold the same
	// documents under the same ids, so document numbers line up.
	type hitKey struct{ Doc, Pos int }
	collect := func(resp *QueryResponse) map[hitKey]bool {
		set := make(map[hitKey]bool, len(resp.Hits))
		for _, h := range resp.Hits {
			set[hitKey{h.Doc, h.Pos}] = true
		}
		return set
	}
	checked, reported := 0, 0
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(docs[:5], 5, m, int64(313+m)) {
			for _, tau := range []float64{0.2, 0.3} {
				var ap, upper, lower QueryResponse
				get(t, s, fmt.Sprintf("/v1/query?collection=ap&p=%s&tau=%g", p, tau), http.StatusOK, &ap)
				get(t, s, fmt.Sprintf("/v1/query?collection=ex&p=%s&tau=%g", p, tau), http.StatusOK, &upper)
				get(t, s, fmt.Sprintf("/v1/query?collection=ex&p=%s&tau=%g", p, tau-eps), http.StatusOK, &lower)
				if !ap.Approx || ap.Epsilon != eps {
					t.Fatalf("approx response not annotated: %+v", ap)
				}
				if upper.Approx || upper.Epsilon != 0 {
					t.Fatalf("exact response wrongly annotated: approx=%v epsilon=%v", upper.Approx, upper.Epsilon)
				}
				apSet, lowerSet := collect(&ap), collect(&lower)
				for _, h := range upper.Hits {
					if !apSet[hitKey{h.Doc, h.Pos}] {
						t.Fatalf("query %q τ=%g: approx missed exact hit %+v", p, tau, h)
					}
				}
				for _, h := range ap.Hits {
					if !lowerSet[hitKey{h.Doc, h.Pos}] {
						t.Fatalf("query %q τ=%g: approx hit %+v below τ−ε", p, tau, h)
					}
				}
				var cnt CountResponse
				get(t, s, fmt.Sprintf("/v1/count?collection=ap&p=%s&tau=%g", p, tau), http.StatusOK, &cnt)
				if !cnt.Approx || cnt.Epsilon != eps || cnt.Count != ap.Count {
					t.Fatalf("count response inconsistent: %+v vs query count %d", cnt, ap.Count)
				}
				checked++
				reported += ap.Count
			}
		}
	}
	if checked == 0 || reported == 0 {
		t.Fatalf("vacuous HTTP containment run: %d queries, %d hits", checked, reported)
	}

	// Cached repeats keep the annotation.
	var first, second QueryResponse
	q := "/v1/query?collection=ap&p=AC&tau=0.2"
	get(t, s, q, http.StatusOK, &first)
	get(t, s, q, http.StatusOK, &second)
	if !second.Cached || !second.Approx || second.Epsilon != eps {
		t.Fatalf("cached approx response lost annotations: %+v", second)
	}

	// Top-k: 422 on the approx collection, 200 on the exact one.
	get(t, s, "/v1/topk?collection=ap&p=AC&k=3", http.StatusUnprocessableEntity, nil)
	get(t, s, "/v1/topk?collection=ex&p=AC&k=3", http.StatusOK, nil)

	// Batch: per-op typed errors, never a whole-batch failure.
	batch := `{"collection":"ap","queries":[
		{"op":"search","p":"AC","tau":0.2},
		{"op":"topk","p":"AC","k":3},
		{"op":"count","p":"AC","tau":0.2},
		{"op":"bogus","p":"AC"}]}`
	var br BatchResponse
	do(t, s, http.MethodPost, "/v1/batch", batch, http.StatusOK, &br)
	if len(br.Results) != 4 {
		t.Fatalf("batch returned %d results", len(br.Results))
	}
	if br.Results[0].Error != "" || br.Results[2].Error != "" {
		t.Fatalf("supported batch ops failed: %+v", br.Results)
	}
	var sr QueryResponse
	rb, _ := json.Marshal(br.Results[0].Result)
	if err := json.Unmarshal(rb, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Approx || sr.Epsilon != eps {
		t.Fatalf("batch search result lost the epsilon echo: %+v", sr)
	}
	if br.Results[1].Error == "" || br.Results[1].Code != "unsupported_query" {
		t.Fatalf("batch topk op: error=%q code=%q, want unsupported_query", br.Results[1].Error, br.Results[1].Code)
	}
	if br.Results[3].Error == "" || br.Results[3].Code != "bad_request" {
		t.Fatalf("batch bogus op: error=%q code=%q, want bad_request", br.Results[3].Error, br.Results[3].Code)
	}
	// A batched op is parsed by the code that parses the single endpoints:
	// an out-of-range k is rejected with the same message and the typed code.
	for _, k := range []string{"0", "10001"} {
		var single errorResponse
		get(t, s, "/v1/topk?collection=ex&p=AC&k="+k, http.StatusBadRequest, &single)
		do(t, s, http.MethodPost, "/v1/batch",
			`{"collection":"ex","queries":[{"op":"topk","p":"AC","k":`+k+`}]}`, http.StatusOK, &br)
		if r := br.Results[0]; r.Code != "bad_request" || r.Error != single.Error || single.Error == "" {
			t.Fatalf("batch topk k=%s: error=%q code=%q; /v1/topk answers %q", k, r.Error, r.Code, single.Error)
		}
	}

	// Stats: per-collection ε and the approx counters.
	var stats struct {
		Collections []CollectionStats `json:"collections"`
		Approx      struct {
			Queries   int64 `json:"queries"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"approx"`
	}
	get(t, s, "/v1/stats", http.StatusOK, &stats)
	byName := map[string]CollectionStats{}
	for _, cs := range stats.Collections {
		byName[cs.Name] = cs
	}
	if cs := byName["ap"]; cs.Backend != core.BackendApprox || cs.Epsilon != eps {
		t.Fatalf("stats for ap: %+v", byName["ap"])
	}
	if cs := byName["ex"]; cs.Backend != core.BackendPlain || cs.Epsilon != 0 {
		t.Fatalf("stats for ex: %+v", byName["ex"])
	}
	if stats.Approx.Queries == 0 || stats.Approx.CacheHits == 0 {
		t.Fatalf("approx counters not tracking: %+v", stats.Approx)
	}
}

// specColl is a minimal Collection stub for cache-key tests: same instance
// id, different backend specs.
type specColl struct {
	id   uint64
	spec core.BackendSpec
}

func (c specColl) ID() uint64                                 { return c.id }
func (c specColl) Name() string                               { return "c" }
func (c specColl) TauMin() float64                            { return 0.1 }
func (c specColl) Spec() core.BackendSpec                     { return c.spec }
func (c specColl) Estimate(patternLen int) core.QueryEstimate { return core.QueryEstimate{} }
func (c specColl) Exec(core.Query, catalog.ExecOpts) (catalog.Result, error) {
	return catalog.Result{}, nil
}

// TestCacheKeyIncludesBackendSpec is the aliasing regression test: even for
// collections sharing an instance id (impossible today, cheap to defend),
// the result-cache key separates backend kinds and ε values, so an approx
// result can never be served for an exact collection or vice versa.
func TestCacheKeyIncludesBackendSpec(t *testing.T) {
	specs := []core.BackendSpec{
		{Kind: core.BackendPlain},
		{Kind: core.BackendCompressed},
		{Kind: core.BackendApprox, Epsilon: 0.05},
		{Kind: core.BackendApprox, Epsilon: 0.1},
	}
	seen := map[string]core.BackendSpec{}
	for _, sp := range specs {
		key := cacheKey("q", specColl{id: 7, spec: sp}, "AC", "0.2")
		if prev, dup := seen[key]; dup {
			t.Fatalf("specs %s and %s share cache key %q", prev, sp, key)
		}
		seen[key] = sp
	}
	// Same spec, same id: the key must still be stable.
	a := cacheKey("q", specColl{id: 7, spec: specs[2]}, "AC", "0.2")
	b := cacheKey("q", specColl{id: 7, spec: specs[2]}, "AC", "0.2")
	if a != b {
		t.Fatal("cache key not deterministic for identical spec")
	}
}
