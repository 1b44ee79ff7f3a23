package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapped"
	"repro/internal/obs"
)

// endpointStats is one endpoint's handle bundle into the metrics registry:
// the counters and the latency histogram are registry children (so /metrics
// and /v1/stats read the same numbers), plus an atomic max the exposition
// format has no series for.
type endpointStats struct {
	requests *obs.Counter
	errors   *obs.Counter
	rejected *obs.Counter
	latency  *obs.Histogram
	maxNs    atomic.Int64
}

// observe records one executed request's latency. Requests rejected before
// execution — wrong method, shed load — are counted in requests and
// rejected but never observed, so the latency figures describe served load
// only (see EndpointSnapshot).
func (e *endpointStats) observe(d time.Duration) {
	e.latency.ObserveDuration(d)
	ns := d.Nanoseconds()
	for {
		cur := e.maxNs.Load()
		if ns <= cur || e.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// reject counts one request refused before execution.
func (e *endpointStats) reject() {
	e.rejected.Inc()
	e.errors.Inc()
}

// EndpointSnapshot is the JSON shape of one endpoint's counters.
//
// Requests counts every request that reached the endpoint; Rejected the
// subset refused before execution (wrong method, shed load under the
// in-flight limit) and Observed the subset that actually executed.
// AvgLatencyUs and MaxLatencyUs are over Observed only — rejections are
// near-instant and would drag the average into meaninglessness, so shed
// load must be read from Rejected, not inferred from latency.
type EndpointSnapshot struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Rejected     int64   `json:"rejected"`
	Observed     int64   `json:"observed"`
	AvgLatencyUs float64 `json:"avg_latency_us"`
	MaxLatencyUs float64 `json:"max_latency_us"`
}

// stats aggregates the server counters on top of the metrics registry:
// every counter and histogram here is a registry child, so /v1/stats is a
// JSON view over the same state /metrics exposes.
type stats struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats

	requestsVec *obs.CounterVec
	errorsVec   *obs.CounterVec
	rejectedVec *obs.CounterVec
	latencyVec  *obs.HistogramVec

	// queryVec is the per-collection query latency histogram, labeled by
	// operation and the serving backend (kind and ε).
	queryVec *obs.HistogramVec

	// queryCostVec is the per-collection query cost histogram family, one
	// series per (collection, backend, resource): how many shards a query
	// touched, candidates it examined, suffix-structure steps it took,
	// index bytes it read, and merge comparisons it made. Executed queries
	// only — cache hits would pile zeros onto every distribution.
	queryCostVec *obs.HistogramVec
	// costHandles caches one costHandles bundle per (collection, backend),
	// so the hot path observes through pre-resolved histogram children
	// instead of paying the vec's label lookup five times per query.
	costHandles sync.Map // string → *costHandles

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheOversized *obs.Counter

	// tenantRequests / tenantShed are the per-tenant admission-control
	// families: every request resolved to a tenant, and the subset shed
	// before execution by typed reason (over_quota, over_budget,
	// over_capacity). admissionShed aggregates sheds across tenants per
	// reason; admissionWait is how long admitted requests queued.
	tenantRequests *obs.CounterVec
	tenantShed     *obs.CounterVec
	admissionShed  *obs.CounterVec
	admissionWait  *obs.Histogram

	// estimatedUnits observes every executed query's pre-execution cost
	// estimate; estimateRatio observes measured/estimated cost units, so
	// estimator drift is one PromQL quantile away.
	estimatedUnits *obs.Histogram
	estimateRatio  *obs.Histogram

	// approxQueries counts queries answered by ε-approximate collections
	// (cache hits included); approxCacheHits counts how many of those were
	// served from the result cache.
	approxQueries   *obs.Counter
	approxCacheHits *obs.Counter

	// Failover accounting: completed replica→primary promotions on this
	// node, primary→fenced demotions (a consumer presented a higher epoch),
	// and every role transition by (from, to).
	promotions      *obs.Counter
	demotions       *obs.Counter
	roleTransitions *obs.CounterVec
}

func newStats(r *obs.Registry) *stats {
	// Process-wide mmap accounting: file-backed index bytes currently mapped
	// (format-4 envelopes opened by the catalog, the ingest index files or
	// direct loads). Registered here so every role exposes it; re-registration
	// on a shared registry is idempotent for func gauges.
	r.GaugeFunc("ustridx_mapped_bytes",
		"Bytes of index storage currently mmap'd into the process (file-backed and reclaimable, not heap).",
		func() float64 { return float64(mapped.MappedBytes()) })
	return &stats{
		endpoints: make(map[string]*endpointStats),
		requestsVec: r.CounterVec("ustridx_requests_total",
			"Requests received, by endpoint (rejections included).", "endpoint"),
		errorsVec: r.CounterVec("ustridx_request_errors_total",
			"Requests answered with an error status, by endpoint.", "endpoint"),
		rejectedVec: r.CounterVec("ustridx_requests_rejected_total",
			"Requests refused before execution (wrong method, shed load), by endpoint.", "endpoint"),
		latencyVec: r.HistogramVec("ustridx_request_duration_seconds",
			"Executed request latency, by endpoint (rejections excluded).", nil, "endpoint"),
		queryVec: r.HistogramVec("ustridx_query_duration_seconds",
			"Query execution latency, by collection, operation and serving backend.",
			nil, "collection", "op", "backend", "epsilon"),
		queryCostVec: r.HistogramVec("ustridx_query_cost",
			"Per-query resource cost of executed (uncached) queries, by collection, serving backend and resource (shards, candidates, suffix_steps, index_bytes, merge_comparisons).",
			obs.CountBuckets, "collection", "backend", "resource"),
		cacheHits:   r.Counter("ustridx_cache_hits_total", "Result cache hits."),
		cacheMisses: r.Counter("ustridx_cache_misses_total", "Result cache misses."),
		cacheOversized: r.Counter("ustridx_cache_oversized_total",
			"Results served but refused by the cache for exceeding the per-entry size bound."),
		tenantRequests: r.CounterVec("ustridx_tenant_requests_total",
			"Requests resolved to a tenant (admitted and shed alike), by tenant.", "tenant"),
		tenantShed: r.CounterVec("ustridx_tenant_shed_total",
			"Requests shed by admission control, by tenant and typed reason (over_quota, over_budget, over_capacity).",
			"tenant", "reason"),
		admissionShed: r.CounterVec("ustridx_admission_shed_total",
			"Requests shed by admission control across all tenants, by typed reason.", "reason"),
		admissionWait: r.Histogram("ustridx_admission_wait_seconds",
			"Time admitted requests spent in the admission queue.", nil),
		estimatedUnits: r.Histogram("ustridx_admission_estimated_units",
			"Pre-execution cost estimate of executed queries, in core cost units.", obs.CountBuckets),
		estimateRatio: r.Histogram("ustridx_admission_estimate_ratio",
			"Measured over estimated cost units per executed query; 1 is a perfect estimate.",
			ratioBuckets),
		approxQueries: r.Counter("ustridx_approx_queries_total",
			"Queries answered by ε-approximate collections (cache hits included)."),
		approxCacheHits: r.Counter("ustridx_approx_cache_hits_total",
			"Approximate-collection queries served from the result cache."),
		promotions: r.Counter("ustridx_promotions_total",
			"Completed replica-to-primary promotions on this node."),
		demotions: r.Counter("ustridx_demotions_total",
			"Primary-to-fenced demotions (a replication consumer presented a higher epoch)."),
		roleTransitions: r.CounterVec("ustridx_role_transitions_total",
			"Role transitions, by from and to role.", "from", "to"),
	}
}

// ratioBuckets covers the estimate-accuracy range of interest: powers of
// two from 1/64 (gross over-estimate) to 64 (gross under-estimate).
var ratioBuckets = []float64{
	1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2,
	1, 2, 4, 8, 16, 32, 64,
}

// endpoint returns (creating on first use) the named endpoint's counters.
func (s *stats) endpoint(name string) *endpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[name]
	if !ok {
		ep = &endpointStats{
			requests: s.requestsVec.With(name),
			errors:   s.errorsVec.With(name),
			rejected: s.rejectedVec.With(name),
			latency:  s.latencyVec.With(name),
		}
		s.endpoints[name] = ep
	}
	return ep
}

// query returns the per-collection latency histogram for one (collection,
// op, backend spec) combination.
func (s *stats) query(collection, op, backend string, epsilon float64) *obs.Histogram {
	return s.queryVec.With(collection, op, backend,
		strconv.FormatFloat(epsilon, 'g', -1, 64))
}

// costHandles is one (collection, backend)'s bundle of pre-resolved cost
// histogram children, one per resource.
type costHandles struct {
	shards           *obs.Histogram
	candidates       *obs.Histogram
	suffixSteps      *obs.Histogram
	indexBytes       *obs.Histogram
	mergeComparisons *obs.Histogram
}

// observe records one executed query's cost into every resource histogram.
func (h *costHandles) observe(c obs.Cost) {
	h.shards.Observe(float64(c.ShardsTouched))
	h.candidates.Observe(float64(c.Candidates))
	h.suffixSteps.Observe(float64(c.SuffixSteps))
	h.indexBytes.Observe(float64(c.IndexBytes))
	h.mergeComparisons.Observe(float64(c.MergeComparisons))
}

// cost returns (creating on first use) the cost-histogram bundle for one
// (collection, backend).
func (s *stats) cost(collection, backend string) *costHandles {
	key := collection + "\x00" + backend
	if v, ok := s.costHandles.Load(key); ok {
		return v.(*costHandles)
	}
	h := &costHandles{
		shards:           s.queryCostVec.With(collection, backend, "shards"),
		candidates:       s.queryCostVec.With(collection, backend, "candidates"),
		suffixSteps:      s.queryCostVec.With(collection, backend, "suffix_steps"),
		indexBytes:       s.queryCostVec.With(collection, backend, "index_bytes"),
		mergeComparisons: s.queryCostVec.With(collection, backend, "merge_comparisons"),
	}
	v, _ := s.costHandles.LoadOrStore(key, h)
	return v.(*costHandles)
}

// snapshot exports every endpoint's counters.
func (s *stats) snapshot() map[string]EndpointSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]EndpointSnapshot, len(s.endpoints))
	for name, ep := range s.endpoints {
		snap := EndpointSnapshot{
			Requests:     ep.requests.Value(),
			Errors:       ep.errors.Value(),
			Rejected:     ep.rejected.Value(),
			Observed:     ep.latency.Count(),
			MaxLatencyUs: float64(ep.maxNs.Load()) / 1e3,
		}
		if snap.Observed > 0 {
			snap.AvgLatencyUs = ep.latency.Sum() * 1e6 / float64(snap.Observed)
		}
		out[name] = snap
	}
	return out
}

// cacheCounts returns the cache hit/miss counters.
func (s *stats) cacheCounts() (hits, misses int64) {
	return s.cacheHits.Value(), s.cacheMisses.Value()
}

// approxCounts returns the approximate-collection query counters.
func (s *stats) approxCounts() (queries, cacheHits int64) {
	return s.approxQueries.Value(), s.approxCacheHits.Value()
}
