package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// scrape fetches /metrics and returns the exposition body after checking
// the content type and that the body lints clean.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body := rec.Body.String()
	if err := obs.Lint(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics exposition fails lint: %v", err)
	}
	return body
}

func TestMetricsEndpoint(t *testing.T) {
	s, docs := testServer(t, Config{})
	p := pattern(t, docs, 3)
	// One computed query, the same one again from the cache, and one
	// rejected method — all three must be visible in the scrape.
	get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)
	get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/query?collection=prot&p="+p+"&tau=0.15", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/query: status %d, want 405", rec.Code)
	}

	body := scrape(t, s)
	for _, want := range []string{
		`ustridx_requests_total{endpoint="query"} 3`,
		`ustridx_requests_rejected_total{endpoint="query"} 1`,
		`ustridx_request_duration_seconds_count{endpoint="query"} 2`,
		`ustridx_query_duration_seconds_count{collection="prot",op="search",backend="plain",epsilon="0"} 2`,
		`ustridx_cache_hits_total 1`,
		`ustridx_cache_misses_total 1`,
		`ustridx_build_info{`,
		`ustridx_role{role="static"} 1`,
		"ustridx_uptime_seconds",
		"ustridx_inflight_requests 0",
		"ustridx_cache_entries 1",
		"ustridx_slow_queries 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// slowLogResponse mirrors the /v1/debug/slowlog JSON shape.
type slowLogResponse struct {
	Enabled     bool            `json:"enabled"`
	ThresholdMs float64         `json:"threshold_ms"`
	Total       int64           `json:"total"`
	Entries     []obs.SlowEntry `json:"entries"`
}

func TestSlowLogBreakdown(t *testing.T) {
	// A one-nanosecond threshold makes every request slow, so the first
	// query lands in the log with its full stage breakdown.
	s, docs := testServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	p := pattern(t, docs, 3)
	get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)

	var log slowLogResponse
	get(t, s, "/v1/debug/slowlog", http.StatusOK, &log)
	if !log.Enabled || log.Total < 1 || len(log.Entries) < 1 {
		t.Fatalf("slowlog did not record the query: %+v", log)
	}
	e := log.Entries[0]
	if e.Endpoint != "query" || e.Op != "search" || e.Collection != "prot" ||
		e.Pattern != p || e.Backend != "plain" || e.Cached {
		t.Fatalf("slow entry identity wrong: %+v", e)
	}
	if e.DurationUs <= 0 {
		t.Fatalf("slow entry has no duration: %+v", e)
	}
	stages := make(map[string]float64, len(e.Stages))
	for _, st := range e.Stages {
		stages[st.Name] = st.DurationUs
	}
	for _, want := range []string{"cache_lookup", "fanout", "backend_search", "merge", "encode"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("slow entry missing stage %q (got %+v)", want, e.Stages)
		}
	}
	// The shard-search time is spent inside the fan-out, so it can never
	// exceed the fan-out's wall time by more than scheduling noise allows
	// across shards; sanity-check the containment the trace promises.
	if stages["backend_search"] <= 0 || stages["fanout"] <= 0 {
		t.Fatalf("fanout/backend_search stages empty: %+v", e.Stages)
	}

	// A cached repeat is marked as such in its entry.
	get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)
	get(t, s, "/v1/debug/slowlog", http.StatusOK, &log)
	if len(log.Entries) < 2 || !log.Entries[0].Cached {
		t.Fatalf("cached repeat not recorded as cached: %+v", log.Entries)
	}
}

func TestSlowLogDisabledByDefault(t *testing.T) {
	s, docs := testServer(t, Config{})
	p := pattern(t, docs, 3)
	get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)
	var log slowLogResponse
	get(t, s, "/v1/debug/slowlog", http.StatusOK, &log)
	if log.Enabled || log.Total != 0 || len(log.Entries) != 0 {
		t.Fatalf("disabled slowlog recorded entries: %+v", log)
	}
}

func TestStatsRejectedAndBuild(t *testing.T) {
	s, docs := testServer(t, Config{})
	p := pattern(t, docs, 3)
	get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)
	// A wrong-method request is rejected before execution: it must count
	// in requests and rejected but leave the latency figures untouched.
	req := httptest.NewRequest(http.MethodPut, "/v1/query", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/query: status %d, want 405", rec.Code)
	}

	var stats struct {
		Build struct {
			Version  string   `json:"version"`
			Go       string   `json:"go"`
			Backends []string `json:"backends"`
		} `json:"build"`
		Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	}
	get(t, s, "/v1/stats", http.StatusOK, &stats)
	if stats.Build.Version == "" || !strings.HasPrefix(stats.Build.Go, "go") {
		t.Fatalf("build section incomplete: %+v", stats.Build)
	}
	if strings.Join(stats.Build.Backends, ",") != "plain,compressed,approx" {
		t.Fatalf("build backends wrong: %v", stats.Build.Backends)
	}
	ep, ok := stats.Endpoints["query"]
	if !ok {
		t.Fatalf("no query endpoint in stats: %v", stats.Endpoints)
	}
	if ep.Requests != 2 || ep.Rejected != 1 || ep.Observed != 1 || ep.Errors != 1 {
		t.Fatalf("query endpoint counters wrong: %+v", ep)
	}
	// With one observation avg and max describe the same request; the avg
	// comes back through a float64 seconds sum, so allow rounding slack.
	if ep.AvgLatencyUs <= 0 || ep.MaxLatencyUs <= 0 || ep.AvgLatencyUs > ep.MaxLatencyUs*1.01 {
		t.Fatalf("latency over observed requests wrong: %+v", ep)
	}
}

// TestMetricsSharedRegistry checks that a caller-supplied registry is the
// one the server exposes, so a daemon can aggregate server, ingest and
// replication metrics on a single /metrics page.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	extern := reg.Counter("test_external_total", "Registered outside the server.")
	extern.Add(7)
	s, docs := testServer(t, Config{Metrics: reg})
	p := pattern(t, docs, 3)
	get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)
	body := scrape(t, s)
	if !strings.Contains(body, "test_external_total 7") {
		t.Fatal("/metrics does not expose the shared registry")
	}
}

// TestMetricsScrapeJSONStatsAgree checks /v1/stats and /metrics read the
// same counters.
func TestMetricsScrapeJSONStatsAgree(t *testing.T) {
	s, docs := testServer(t, Config{})
	p := pattern(t, docs, 3)
	for i := 0; i < 3; i++ {
		get(t, s, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)
	}
	var stats struct {
		Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	}
	get(t, s, "/v1/stats", http.StatusOK, &stats)
	body := scrape(t, s)
	if stats.Endpoints["query"].Requests != 3 {
		t.Fatalf("stats requests %d, want 3", stats.Endpoints["query"].Requests)
	}
	if !strings.Contains(body, `ustridx_requests_total{endpoint="query"} 3`) {
		t.Fatal("/metrics disagrees with /v1/stats on the request count")
	}
}

// TestDebugObsHeaders: a query sent with X-Debug-Obs: 1 answers with the
// per-stage Server-Timing header (fan-out and backend search among its
// stages) and an X-Query-Cost header holding a JSON cost snapshot, on every
// backend kind; the same query without the header carries neither.
func TestDebugObsHeaders(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 800, Theta: 0.3, Seed: 71})
	cat := catalog.New(catalog.Options{TauMin: 0.1, Shards: 3, Epsilon: 0.05})
	kinds := []string{core.BackendPlain, core.BackendCompressed, core.BackendApprox}
	for _, kind := range kinds {
		if _, err := cat.AddWithBackend(kind, docs, kind); err != nil {
			t.Fatal(err)
		}
	}
	// With the result cache off every request runs the fan-out.
	s := New(cat, Config{CacheEntries: -1})
	p := pattern(t, docs, 3)
	for _, kind := range kinds {
		url := "/v1/query?collection=" + kind + "&p=" + p + "&tau=0.15"
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set(DebugObsHeader, "1")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", kind, rec.Code, rec.Body)
		}
		timing := rec.Header().Get("Server-Timing")
		for _, stage := range []string{"fanout;dur=", "backend_search;dur="} {
			if !strings.Contains(timing, stage) {
				t.Errorf("%s: Server-Timing %q lacks %q", kind, timing, stage)
			}
		}
		var cost obs.CostSnapshot
		if err := json.Unmarshal([]byte(rec.Header().Get("X-Query-Cost")), &cost); err != nil {
			t.Fatalf("%s: X-Query-Cost %q: %v", kind, rec.Header().Get("X-Query-Cost"), err)
		}
		if cost.Candidates == 0 && cost.SuffixSteps == 0 {
			t.Errorf("%s: X-Query-Cost %+v counts no candidates and no suffix steps", kind, cost)
		}

		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s without the header: status %d", kind, rec.Code)
		}
		for _, h := range []string{"Server-Timing", "X-Query-Cost"} {
			if v := rec.Header().Get(h); v != "" {
				t.Errorf("%s without X-Debug-Obs: %s = %q", kind, h, v)
			}
		}
	}
}
