package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/ustring"
)

func writeDataDir(t *testing.T) (string, []*ustring.String) {
	t.Helper()
	docs := gen.Collection(gen.Config{N: 400, Theta: 0.3, Seed: 83})
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "prot.ustr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ustring.MarshalCollection(f, docs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return dir, docs
}

func TestLoadCatalogBuildsAndCaches(t *testing.T) {
	dataDir, docs := writeDataDir(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	logf := func(string, ...any) {}
	opts := catalog.Options{TauMin: 0.1, Shards: 2}

	built, err := loadCatalog(dataDir, cacheDir, opts, logf)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must come from the persisted cache and answer identically.
	cached, err := loadCatalog(dataDir, cacheDir, opts, logf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := built.Get("prot")
	b, ok := cached.Get("prot")
	if !ok || a.Docs() != b.Docs() || a.Positions() != b.Positions() {
		t.Fatalf("cached catalog differs: built %d/%d docs/positions, cached %+v", a.Docs(), a.Positions(), b)
	}
	for _, p := range gen.CollectionPatterns(docs, 5, 3, 89) {
		ha, err := a.Search(p, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.Search(p, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if len(ha) != len(hb) {
			t.Fatalf("cache-loaded catalog disagrees on %q", p)
		}
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("cache-loaded catalog disagrees on %q at %d", p, i)
			}
		}
	}
}

// TestLoadCatalogRebuildsOnTauMinChange: a cache built at one taumin must
// not be served when the daemon is restarted with another.
func TestLoadCatalogRebuildsOnTauMinChange(t *testing.T) {
	dataDir, _ := writeDataDir(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	logf := func(string, ...any) {}
	if _, err := loadCatalog(dataDir, cacheDir, catalog.Options{TauMin: 0.1}, logf); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog(dataDir, cacheDir, catalog.Options{TauMin: 0.2}, logf)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := cat.Get("prot")
	if col.TauMin() != 0.2 {
		t.Fatalf("restart with -taumin 0.2 served taumin %g", col.TauMin())
	}
	// The rebuild must also refresh the cache for the next restart.
	again, err := loadCatalog(dataDir, cacheDir, catalog.Options{TauMin: 0.2}, logf)
	if err != nil {
		t.Fatal(err)
	}
	col, _ = again.Get("prot")
	if col.TauMin() != 0.2 {
		t.Fatalf("refreshed cache served taumin %g, want 0.2", col.TauMin())
	}
}

// TestLoadCatalogRebuildsOnDataSetChange: adding a collection file to the
// data directory must invalidate the index cache on the next start.
func TestLoadCatalogRebuildsOnDataSetChange(t *testing.T) {
	dataDir, _ := writeDataDir(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	logf := func(string, ...any) {}
	opts := catalog.Options{TauMin: 0.1}
	if _, err := loadCatalog(dataDir, cacheDir, opts, logf); err != nil {
		t.Fatal(err)
	}
	extra := gen.Collection(gen.Config{N: 200, Theta: 0.3, Seed: 91})
	f, err := os.Create(filepath.Join(dataDir, "extra.ustr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ustring.MarshalCollection(f, extra); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cat, err := loadCatalog(dataDir, cacheDir, opts, logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Get("extra"); !ok {
		t.Fatalf("new data file not served after restart; collections = %v", cat.Names())
	}
	// And removing it must prune the cached copy too.
	if err := os.Remove(filepath.Join(dataDir, "extra.ustr")); err != nil {
		t.Fatal(err)
	}
	cat, err = loadCatalog(dataDir, cacheDir, opts, logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Get("extra"); ok {
		t.Fatal("removed data file still served from cache")
	}
}

// TestLoadCatalogRebuildsOnDataEdit: editing a document inside a cached
// collection's data file must invalidate the index cache, so the next start
// answers from the edited data, not the stale index.
func TestLoadCatalogRebuildsOnDataEdit(t *testing.T) {
	dataDir, _ := writeDataDir(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	logf := func(string, ...any) {}
	opts := catalog.Options{TauMin: 0.1}
	if _, err := loadCatalog(dataDir, cacheDir, opts, logf); err != nil {
		t.Fatal(err)
	}
	// Rewrite one byte: the first certain position's character becomes 'x',
	// which the generator never emits, so "x" goes from no hits to some.
	path := filepath.Join(dataDir, "prot.ustr")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte(":1\n"))
	if i < 1 || bytes.IndexByte(raw, 'x') >= 0 {
		t.Fatalf("unexpected data file layout (certain position at %d)", i)
	}
	raw[i-1] = 'x'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := os.Stat(catalog.ManifestPath(cacheDir, "prot"))
	if err != nil {
		t.Fatal(err)
	}
	later := man.ModTime().Add(time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog(dataDir, cacheDir, opts, logf)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := cat.Get("prot")
	hits, err := col.Search([]byte("x"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("edited data file still served from the stale index cache")
	}
}

// TestLoadCatalogLongCapEquivalence: -longcap 0 (default) and an explicit
// -longcap equal to the library default are the same effective
// configuration and must not force a rebuild, while a genuinely different
// cap must.
func TestLoadCatalogLongCapEquivalence(t *testing.T) {
	dataDir, _ := writeDataDir(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	logf := func(string, ...any) {}
	if _, err := loadCatalog(dataDir, cacheDir, catalog.Options{TauMin: 0.1}, logf); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog(dataDir, cacheDir, catalog.Options{TauMin: 0.1, LongCap: core.DefaultLongCap}, logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cacheMismatch(cat, dataDir, cacheDir); err != nil {
		t.Fatalf("explicit default longcap reported a mismatch: %v", err)
	}
	rebuilt := false
	logSpy := func(format string, args ...any) {
		if strings.Contains(format, "rebuilding") {
			rebuilt = true
		}
	}
	if _, err := loadCatalog(dataDir, cacheDir, catalog.Options{TauMin: 0.1, LongCap: 64}, logSpy); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("changed -longcap did not trigger a rebuild")
	}
	// The rebuilt cache's manifests must record the new cap so the next
	// identical start loads cleanly.
	cat, err = loadCatalog(dataDir, cacheDir, catalog.Options{TauMin: 0.1, LongCap: 64}, logf)
	if err != nil {
		t.Fatal(err)
	}
	infos := cat.Stats()
	if len(infos) != 1 || infos[0].LongCap != 64 {
		t.Fatalf("reloaded LongCap = %+v, want 64", infos)
	}
}

func TestLoadCatalogErrors(t *testing.T) {
	if _, err := loadCatalog(filepath.Join(t.TempDir(), "missing"), "", catalog.Options{}, func(string, ...any) {}); err == nil {
		t.Fatal("missing data dir did not error")
	}
	if _, err := loadCatalog(t.TempDir(), "", catalog.Options{}, func(string, ...any) {}); err == nil {
		t.Fatal("empty data dir did not error")
	}
}

// TestFlagValidation: replica mode excludes the local-data flags, plain mode
// still requires -data, and -wal and -index-cache need directories of their
// own; the errors must fire before anything listens.
func TestFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil || !strings.Contains(err.Error(), "-data") {
		t.Fatalf("missing -data not rejected: %v", err)
	}
	for _, args := range [][]string{
		{"-follow", "http://127.0.0.1:1", "-wal", t.TempDir()},
		{"-follow", "http://127.0.0.1:1", "-data", t.TempDir()},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-follow") {
			t.Fatalf("run(%v) = %v, want a -follow incompatibility error", args, err)
		}
	}
	// The index cache and the WAL directory share the manifest layout, so
	// one directory cannot hold both.
	dir := t.TempDir()
	if err := run([]string{"-data", t.TempDir(), "-wal", dir, "-index-cache", dir + "/"}); err == nil ||
		!strings.Contains(err.Error(), "-index-cache") {
		t.Fatalf("shared -wal and -index-cache directory not rejected: %v", err)
	}
}

// TestDaemonServes wires the daemon's catalog into the HTTP stack end to
// end, as run() does, and exercises one query.
func TestDaemonServes(t *testing.T) {
	dataDir, docs := writeDataDir(t)
	cat, err := loadCatalog(dataDir, "", catalog.Options{TauMin: 0.1}, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(cat, server.Config{}))
	defer ts.Close()
	p := gen.CollectionPatterns(docs, 1, 3, 97)[0]
	resp, err := http.Get(ts.URL + "/v1/query?collection=prot&p=" + string(p) + "&tau=0.15")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon query status %d", resp.StatusCode)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", health.StatusCode)
	}
}

// TestDaemonServesMutable wires the -wal path end to end: a document PUT
// over HTTP is queryable immediately, survives a daemon restart via WAL
// replay, and can be deleted again.
func TestDaemonServesMutable(t *testing.T) {
	dataDir, _ := writeDataDir(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	opts := catalog.Options{TauMin: 0.1, Shards: 2}
	quiet := func(string, ...any) {}

	start := func() (*httptest.Server, *ingest.Store) {
		cat, err := loadCatalog(dataDir, "", opts, quiet)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ingest.Open(cat, ingest.Options{Dir: walDir, Catalog: opts, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(server.NewIngest(st, server.Config{})), st
	}
	countOf := func(ts *httptest.Server, p string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/count?collection=prot&p=" + p + "&tau=0.1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("count status %d", resp.StatusCode)
		}
		var cr server.CountResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr.Count
	}

	ts, st := start()
	// Z is outside the generator's protein alphabet, so the marker pattern
	// can only ever match the document we put.
	p := "ZZZZ"
	before := countOf(ts, p)
	if before != 0 {
		t.Fatalf("marker pattern already present: count %d", before)
	}

	var body bytes.Buffer
	if err := ustring.Marshal(&body, ustring.Deterministic("ZZZZZZ")); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		ts.URL+"/v1/collections/prot/documents/live-doc", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	after := countOf(ts, p)
	if after <= before {
		t.Fatalf("put document invisible: count %d before, %d after", before, after)
	}

	// Restart: graceful close, fresh catalog, WAL replay.
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ts, st = start()
	defer ts.Close()
	defer st.Close()
	if got := countOf(ts, p); got != after {
		t.Fatalf("after restart: count %d, want %d", got, after)
	}
	req, err = http.NewRequest(http.MethodDelete,
		ts.URL+"/v1/collections/prot/documents/live-doc", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if got := countOf(ts, p); got != before {
		t.Fatalf("after delete: count %d, want %d", got, before)
	}
}

// TestDaemonMetricsEndToEnd wires the full observability stack the way
// run() does — one registry shared by the server and the ingest store —
// mutates and queries, then scrapes /metrics and checks families from
// every layer appear in a lint-clean exposition.
func TestDaemonMetricsEndToEnd(t *testing.T) {
	dataDir, docs := writeDataDir(t)
	opts := catalog.Options{TauMin: 0.1, Shards: 2}
	quiet := func(string, ...any) {}
	cat, err := loadCatalog(dataDir, "", opts, quiet)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := ingest.Open(cat, ingest.Options{
		Dir: t.TempDir(), Catalog: opts, Logf: quiet, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(server.NewIngest(st, server.Config{
		Metrics:            reg,
		SlowQueryThreshold: time.Nanosecond,
	}))
	defer ts.Close()

	// One WAL-logged PUT, one query, one compaction: every layer records.
	var body bytes.Buffer
	if err := ustring.Marshal(&body, ustring.Deterministic("ZZZZZZ")); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		ts.URL+"/v1/collections/prot/documents/obs-doc", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	p := gen.CollectionPatterns(docs, 1, 3, 97)[0]
	qr, err := http.Get(ts.URL + "/v1/query?collection=prot&p=" + string(p) + "&tau=0.15")
	if err != nil {
		t.Fatal(err)
	}
	qr.Body.Close()
	cr, err := http.Post(ts.URL+"/v1/compact?collection=prot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mr.StatusCode)
	}
	if err := obs.Lint(raw); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	scrapeText := string(raw)
	for _, want := range []string{
		// Serving layer.
		`ustridx_requests_total{endpoint="query"} 1`,
		`ustridx_role{role="primary"} 1`,
		"ustridx_build_info{",
		// Ingest layer.
		`ustridx_puts_total 1`,
		`ustridx_wal_appends_total{collection="prot"} 1`,
		`ustridx_wal_append_seconds_count{collection="prot"} 1`,
		`ustridx_compactions_total{collection="prot"} 1`,
		`ustridx_wal_bytes{collection="prot"}`,
		`ustridx_docs{collection="prot"}`,
		// Slow-query log counted the traced request.
		"ustridx_slow_queries",
	} {
		if !strings.Contains(scrapeText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	sl, err := http.Get(ts.URL + "/v1/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Body.Close()
	var slow struct {
		Enabled bool            `json:"enabled"`
		Entries []obs.SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(sl.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	if !slow.Enabled || len(slow.Entries) == 0 {
		t.Fatalf("slowlog empty: %+v", slow)
	}
}

// TestVersionFlag checks -version short-circuits startup.
func TestVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("run(-version) = %v", err)
	}
}
