package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/ustring"
)

// TestMixedBackendEquivalenceHTTP is the mixed-backend acceptance test: a
// store whose collections are half plain, half compressed — driven through
// the public HTTP API with a randomized sequence of document PUTs, DELETEs
// and compactions — must answer /v1/query, /v1/topk and /v1/count
// bit-identically to an all-plain store driven through the identical
// sequence.
func TestMixedBackendEquivalenceHTTP(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2600, Theta: 0.3, Seed: 87})
	if len(docs) < 16 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	copts := catalog.Options{TauMin: 0.1, Shards: 3}
	newSrv := func() (*Server, *ingest.Store) {
		st, err := ingest.Open(nil, ingest.Options{
			Dir: t.TempDir(), Catalog: copts, CompactThreshold: -1, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return NewIngest(st, Config{CacheEntries: -1}), st
	}
	mixed, mixedSt := newSrv()
	plain, _ := newSrv()

	colls := []struct{ name, backend string }{
		{"alpha", core.BackendPlain},
		{"beta", core.BackendCompressed},
		{"gamma", core.BackendPlain},
		{"delta", core.BackendCompressed},
	}
	put := func(s *Server, coll, backend, id string, doc *ustring.String) {
		t.Helper()
		var body bytes.Buffer
		if err := ustring.Marshal(&body, doc); err != nil {
			t.Fatal(err)
		}
		target := "/v1/collections/" + coll + "/documents/" + id
		if backend != "" {
			target += "?backend=" + backend
		}
		do(t, s, http.MethodPut, target, body.String(), http.StatusOK, nil)
	}
	del := func(s *Server, coll, id string) {
		t.Helper()
		do(t, s, http.MethodDelete, "/v1/collections/"+coll+"/documents/"+id, "", http.StatusOK, nil)
	}
	compact := func(s *Server) {
		t.Helper()
		do(t, s, http.MethodPost, "/v1/compact", "", http.StatusOK, nil)
	}

	// Identical randomized mutation history against both servers: the mixed
	// server names each collection's backend on the creating PUT, the
	// reference server always takes the plain default.
	rng := rand.New(rand.NewSource(171))
	liveIDs := make(map[string][]string)
	nextDoc := 0
	putRandom := func(coll string, backend string) {
		id := fmt.Sprintf("d%04d", rng.Intn(40))
		doc := docs[nextDoc%len(docs)]
		nextDoc++
		put(mixed, coll, backend, id, doc)
		put(plain, coll, "", id, doc)
		for _, have := range liveIDs[coll] {
			if have == id {
				return
			}
		}
		liveIDs[coll] = append(liveIDs[coll], id)
	}
	for _, c := range colls {
		putRandom(c.name, c.backend) // creating PUT fixes the backend
	}
	for round := 0; round < 3; round++ {
		for _, c := range colls {
			for i := 0; i < 6; i++ {
				putRandom(c.name, "")
			}
			if ids := liveIDs[c.name]; len(ids) > 2 && rng.Intn(2) == 0 {
				victim := ids[rng.Intn(len(ids))]
				del(mixed, c.name, victim)
				del(plain, c.name, victim)
				kept := ids[:0]
				for _, id := range ids {
					if id != victim {
						kept = append(kept, id)
					}
				}
				liveIDs[c.name] = kept
			}
		}
		if round < 2 {
			compact(mixed)
			compact(plain)
		}
	}

	// Guard against vacuity: the mixed store must actually hold compressed
	// collections.
	for _, c := range colls {
		v, ok := mixedSt.Get(c.name)
		if !ok {
			t.Fatalf("collection %q missing from the mixed store", c.name)
		}
		if v.Backend() != c.backend {
			t.Fatalf("collection %q has backend %q, want %q", c.name, v.Backend(), c.backend)
		}
	}

	// The acceptance grid: every read endpoint answers identically.
	checked, hits := 0, 0
	for _, c := range colls {
		for _, m := range []int{2, 3, 5} {
			for _, p := range gen.CollectionPatterns(docs, 5, m, int64(97+m)) {
				for _, tau := range []string{"0.1", "0.15", "0.3"} {
					q := fmt.Sprintf("/v1/query?collection=%s&p=%s&tau=%s", c.name, p, tau)
					var wantQ, gotQ QueryResponse
					get(t, plain, q, http.StatusOK, &wantQ)
					get(t, mixed, q, http.StatusOK, &gotQ)
					if !reflect.DeepEqual(gotQ, wantQ) {
						t.Fatalf("%s: mixed %+v, all-plain %+v", q, gotQ, wantQ)
					}
					cq := fmt.Sprintf("/v1/count?collection=%s&p=%s&tau=%s", c.name, p, tau)
					var wantC, gotC CountResponse
					get(t, plain, cq, http.StatusOK, &wantC)
					get(t, mixed, cq, http.StatusOK, &gotC)
					if !reflect.DeepEqual(gotC, wantC) {
						t.Fatalf("%s: mixed %+v, all-plain %+v", cq, gotC, wantC)
					}
					hits += wantQ.Count
					checked++
				}
				for _, k := range []int{1, 3, 10} {
					kq := fmt.Sprintf("/v1/topk?collection=%s&p=%s&k=%d", c.name, p, k)
					var wantK, gotK QueryResponse
					get(t, plain, kq, http.StatusOK, &wantK)
					get(t, mixed, kq, http.StatusOK, &gotK)
					if !reflect.DeepEqual(gotK, wantK) {
						t.Fatalf("%s: mixed %+v, all-plain %+v", kq, gotK, wantK)
					}
				}
			}
		}
	}
	if checked == 0 || hits == 0 {
		t.Fatalf("vacuous equivalence run: %d queries, %d hits", checked, hits)
	}
}

// TestPutBackendConflict: naming a different backend for an existing
// collection answers 409 and leaves the collection untouched.
func TestPutBackendConflict(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 400, Theta: 0.3, Seed: 91})
	st, err := ingest.Open(nil, ingest.Options{
		Dir: t.TempDir(), Catalog: catalog.Options{TauMin: 0.1}, CompactThreshold: -1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := NewIngest(st, Config{})
	var body bytes.Buffer
	if err := ustring.Marshal(&body, docs[0]); err != nil {
		t.Fatal(err)
	}
	do(t, s, http.MethodPut, "/v1/collections/c/documents/a?backend=compressed",
		body.String(), http.StatusOK, nil)
	do(t, s, http.MethodPut, "/v1/collections/c/documents/b?backend=plain",
		body.String(), http.StatusConflict, nil)
	do(t, s, http.MethodPut, "/v1/collections/c/documents/b?backend=bogus",
		body.String(), http.StatusBadRequest, nil)
	// Unnamed backends keep working against the existing collection.
	var resp PutResponse
	do(t, s, http.MethodPut, "/v1/collections/c/documents/b", body.String(), http.StatusOK, &resp)
	if resp.Backend != core.BackendCompressed {
		t.Fatalf("PUT response backend = %q, want compressed", resp.Backend)
	}
	v, _ := st.Get("c")
	if v.Backend() != core.BackendCompressed || v.Docs() != 2 {
		t.Fatalf("collection state corrupted: backend %q, %d docs", v.Backend(), v.Docs())
	}
}

// TestStatsMemorySection: /v1/stats reports per-collection index bytes so a
// compressed collection's savings are observable.
func TestStatsMemorySection(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 1200, Theta: 0.3, Seed: 93})
	cat := catalog.New(catalog.Options{TauMin: 0.1, Shards: 2})
	if _, err := cat.Add("p", docs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddWithBackend("z", docs, core.BackendCompressed); err != nil {
		t.Fatal(err)
	}
	s := New(cat, Config{})
	var stats struct {
		Memory struct {
			HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
			IndexBytesTotal int    `json:"index_bytes_total"`
			Collections     []struct {
				Name        string `json:"name"`
				Backend     string `json:"backend"`
				IndexBytes  int    `json:"index_bytes"`
				BytesPerDoc int    `json:"bytes_per_doc"`
			} `json:"collections"`
		} `json:"memory"`
		Collections []CollectionStats `json:"collections"`
	}
	get(t, s, "/v1/stats", http.StatusOK, &stats)
	if stats.Memory.HeapAllocBytes == 0 {
		t.Fatal("memory section missing process-wide heap figure")
	}
	byName := make(map[string]int)
	byBackend := make(map[string]string)
	for _, cm := range stats.Memory.Collections {
		byName[cm.Name] = cm.IndexBytes
		byBackend[cm.Name] = cm.Backend
		if cm.IndexBytes <= 0 || cm.BytesPerDoc <= 0 {
			t.Fatalf("collection %q reports no index bytes: %+v", cm.Name, cm)
		}
	}
	if byBackend["p"] != core.BackendPlain || byBackend["z"] != core.BackendCompressed {
		t.Fatalf("memory section backends wrong: %v", byBackend)
	}
	// Same documents, compressed representation: the savings must show up
	// in the per-collection figures. Plain counts only the arrays it holds,
	// which puts these small documents at 1.77×; 1.7× is the bar.
	if 17*byName["z"] > 10*byName["p"] {
		t.Fatalf("compressed collection reports %d bytes vs plain %d — savings not observable",
			byName["z"], byName["p"])
	}
	if stats.Memory.IndexBytesTotal != byName["p"]+byName["z"] {
		t.Fatalf("index_bytes_total %d != %d + %d",
			stats.Memory.IndexBytesTotal, byName["p"], byName["z"])
	}
	for _, cs := range stats.Collections {
		if cs.Backend == "" || cs.IndexBytes == 0 {
			t.Fatalf("collections section misses backend info: %+v", cs)
		}
	}
}

// TestPlainLoadPathsHTTP: a plain collection served as built, as loaded
// from its saved envelopes onto the heap and as loaded mapped answers
// /v1/query, /v1/topk and /v1/count with byte-identical bodies and
// X-Query-Cost headers, short and long patterns alike.
func TestPlainLoadPathsHTTP(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2400, Theta: 0.3, Seed: 97})
	opts := catalog.Options{TauMin: 0.1, Shards: 3}
	built := catalog.New(opts)
	if _, err := built.Add("p", docs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	heap, err := catalog.Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MMap = true
	mm, err := catalog.Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	servers := []*Server{
		New(built, Config{CacheEntries: -1}),
		New(heap, Config{CacheEntries: -1}),
		New(mm, Config{CacheEntries: -1}),
	}
	answer := func(s *Server, target string) string {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		req.Header.Set(DebugObsHeader, "1")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", target, rec.Code, rec.Body)
		}
		return rec.Header().Get("X-Query-Cost") + "\n" + rec.Body.String()
	}
	checked := 0
	for _, m := range []int{1, 2, 3, 5, 9, 16} {
		for _, p := range gen.CollectionPatterns(docs, 5, m, int64(101+m)) {
			q := "collection=p&p=" + url.QueryEscape(string(p))
			for _, target := range []string{
				"/v1/query?" + q + "&tau=0.1", "/v1/query?" + q + "&tau=0.3",
				"/v1/count?" + q + "&tau=0.2", "/v1/topk?" + q + "&k=7",
			} {
				want := answer(servers[0], target)
				for i, s := range servers[1:] {
					if got := answer(s, target); got != want {
						t.Fatalf("%s: load path %d answers\n%s\nbuilt answers\n%s", target, i+1, got, want)
					}
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d requests compared", checked)
	}
}
