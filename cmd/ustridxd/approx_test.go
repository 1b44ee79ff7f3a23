package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/server"
)

// TestDaemonServesApprox wires the -backend approx path end to end: the
// catalog builds ε-indexes, the index cache round-trips them (format-3
// envelopes + manifest ε), a restart with a different -epsilon rebuilds,
// and the HTTP surface annotates answers and rejects top-k with 422.
func TestDaemonServesApprox(t *testing.T) {
	dataDir, docs := writeDataDir(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	quiet := func(string, ...any) {}
	opts := catalog.Options{TauMin: 0.1, Shards: 2, Backend: core.BackendApprox, Epsilon: 0.05}

	built, err := loadCatalog(dataDir, cacheDir, opts, quiet)
	if err != nil {
		t.Fatal(err)
	}
	// Restart from the cache: the ε-collection must come back identical.
	cached, err := loadCatalog(dataDir, cacheDir, opts, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if err := cacheMismatch(cached, dataDir, cacheDir); err != nil {
		t.Fatalf("matching approx cache reported a mismatch: %v", err)
	}
	a, _ := built.Get("prot")
	b, _ := cached.Get("prot")
	if a.Spec() != b.Spec() || b.Spec() != (core.BackendSpec{Kind: core.BackendApprox, Epsilon: 0.05}) {
		t.Fatalf("cache round-trip lost the spec: built %s, cached %s", a.Spec(), b.Spec())
	}
	hits := 0
	for _, p := range gen.CollectionPatterns(docs, 5, 3, 317) {
		ha, err := a.Search(p, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.Search(p, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(ha) != len(hb) {
			t.Fatalf("cache-loaded approx catalog disagrees on %q: %d vs %d", p, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("cache-loaded approx catalog disagrees on %q at %d", p, i)
			}
		}
		hits += len(ha)
	}
	if hits == 0 {
		t.Fatal("vacuous daemon restart check: no hits")
	}

	// A different -epsilon is a different index: the cache must rebuild.
	rebuilt := false
	logSpy := func(format string, args ...any) {
		if strings.Contains(format, "rebuilding") {
			rebuilt = true
		}
	}
	reopts := opts
	reopts.Epsilon = 0.1
	if _, err := loadCatalog(dataDir, cacheDir, reopts, logSpy); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("changed -epsilon did not trigger a rebuild")
	}

	// The HTTP surface over the daemon's catalog: annotated answers, 422
	// top-k, ε in stats.
	ts := httptest.NewServer(server.New(built, server.Config{}))
	defer ts.Close()
	p := gen.CollectionPatterns(docs, 1, 3, 331)[0]
	resp, err := http.Get(ts.URL + "/v1/query?collection=prot&p=" + string(p) + "&tau=0.2")
	if err != nil {
		t.Fatal(err)
	}
	var qr server.QueryResponse
	err = json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d, err %v", resp.StatusCode, err)
	}
	if !qr.Approx || qr.Epsilon != 0.05 {
		t.Fatalf("daemon approx response not annotated: %+v", qr)
	}
	topk, err := http.Get(ts.URL + "/v1/topk?collection=prot&p=" + string(p) + "&k=3")
	if err != nil {
		t.Fatal(err)
	}
	topk.Body.Close()
	if topk.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("top-k on the approx daemon: status %d, want 422", topk.StatusCode)
	}
}

// TestEpsilonFlagValidation: -epsilon without -backend approx must fail
// before anything listens.
func TestEpsilonFlagValidation(t *testing.T) {
	err := run([]string{"-data", t.TempDir(), "-epsilon", "0.1"})
	if err == nil || !strings.Contains(err.Error(), "-epsilon") {
		t.Fatalf("-epsilon without -backend approx not rejected: %v", err)
	}
}
