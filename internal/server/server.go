// Package server exposes a catalog over an HTTP/JSON API — the query tier
// of the ustridxd daemon.
//
// Endpoints (all responses are JSON):
//
//	GET /v1/query?collection=C&p=PATTERN&tau=0.2   threshold search
//	GET /v1/topk?collection=C&p=PATTERN&k=10       global top-k (422 on
//	                                               collections whose backend
//	                                               cannot rank exactly)
//	GET /v1/count?collection=C&p=PATTERN&tau=0.2   occurrence count
//	POST /v1/batch                                 many queries, one request
//	PUT /v1/collections/{c}/documents/{id}[?backend=plain|compressed|approx][&epsilon=0.05]
//	                                               insert/replace a document
//	                                               (backend+epsilon fix the
//	                                               index spec when this PUT
//	                                               creates the collection;
//	                                               a conflict answers 409)
//	DELETE /v1/collections/{c}/documents/{id}      delete a document
//	POST /v1/compact[?collection=C]                fold into the manifest,
//	                                               truncate the WAL
//	GET /v1/replication/wal?collection=C&epoch=E&from=O   tail the WAL feed
//	GET /v1/replication/snapshot?collection=C      bootstrap snapshot: the
//	                                               committed manifest and
//	                                               its epoch, the position
//	                                               (epoch, 0)
//	GET /v1/replication/file?collection=C&file=N   index file N of the
//	                                               manifest (raw bytes)
//	GET /v1/stats                                  counters, collections,
//	                                               role, per-collection
//	                                               memory (see OPERATIONS.md)
//	GET /healthz                                   liveness
//
// The mutation endpoints are live when the server is a primary over an
// ingest store (NewIngest); a static server (New) and a replica
// (NewReplica) answer them with 403. The replication endpoints exist only
// on primaries; /v1/stats carries a "role" field (static, primary or
// replica) so clients and followers can tell the three apart, and on a
// replica a "replication" section with per-collection lag. The document
// body of a PUT is the text encoding of internal/ustring.
//
// Every query — single or batch — runs through one shared execution path
// that consults the collection backend's capabilities before dispatch:
// collections on the ε-approximate backend answer search and count under
// their declared additive error (responses carry "approx": true and the
// effective "epsilon"), and operations their backend cannot answer (top-k
// on the ε-index) are rejected with the typed core.ErrUnsupportedQuery
// mapped to 422 — in a batch, per op, never failing the whole request.
//
// The server keeps an LRU cache of successful results keyed by
// (operation, collection-instance, backend-spec, pattern, tau-or-k),
// bounded by entry count and resident bytes, and tracks per-endpoint
// request, error and latency counters exposed via /v1/stats, alongside
// approximate-query counters and every collection's backend and ε. Because
// mutable collections stamp every published snapshot with a fresh instance
// id, a mutation implicitly invalidates all cached results of the
// collection it touched.
//
// Admission control governs every query and mutation endpoint. Requests
// are resolved to a tenant by the X-API-Key header (Config.Tenants /
// ParseAPIKeys; unknown or missing keys run as the anonymous tenant) and
// pass the tenant's token bucket and concurrent-query quota, then a
// per-query cost estimate against the tenant's budget (priced from
// collection stats before any index work), then the weighted admission
// queue bounding global concurrency — stride-scheduled by tenant weight,
// so a flooding tenant cannot starve a polite one. Refusals at any step
// answer 429 with a Retry-After header and a typed code: over_quota,
// over_budget, or over_capacity.
//
// Every request carries an end-to-end id: the X-Request-Id header when the
// client supplies a well-formed one, a generated id otherwise. The id is
// echoed on the response, threaded through the request context (and into
// each per-op result of a /v1/batch as "<id>/<index>"), stamped on
// slow-query log entries, and keys the optional access log
// (Config.AccessLog). Query requests also accumulate an obs.Cost — shards
// touched, candidates examined, suffix-structure steps, index bytes read,
// merge comparisons, cache hits/misses — observed into the per-collection
// ustridx_query_cost histograms, attached to slow-log entries, and returned
// in Server-Timing/X-Query-Cost headers when the request sets
// X-Debug-Obs: 1.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
	"repro/internal/replica"
)

// Role names what this server is, reported in /v1/stats so operators (and
// followers probing a would-be primary) can tell a static catalog, a
// mutable primary, and a read replica apart.
type Role string

// Server roles.
const (
	// RoleStatic serves an immutable catalog; mutations answer 403.
	RoleStatic Role = "static"
	// RolePrimary serves a mutable ingest store and the replication feed.
	RolePrimary Role = "primary"
	// RoleReplica serves a store replicated from a primary; mutations
	// answer 403 and must go to the primary.
	RoleReplica Role = "replica"
	// RoleFenced is the effective role of a demoted primary: a replication
	// consumer presented an epoch above its own, proving a newer primary
	// exists, so every mutation answers a typed 409 stale_epoch until the
	// node is restarted as a follower of the new primary. Reads keep
	// working. RoleFenced is derived (reported by /v1/stats and the role
	// gauge), never assigned.
	RoleFenced Role = "fenced"
)

// Config tunes the server. The zero value is usable.
type Config struct {
	// CacheEntries bounds the result cache; 0 means DefaultCacheEntries,
	// negative disables caching.
	CacheEntries int
	// CacheBytes bounds the result cache's accounted resident bytes —
	// the real memory bound; the entry count alone is not one when
	// entries vary from empty to MaxCachedHits hits. 0 means
	// DefaultCacheBytes, negative disables the byte bound (entry count
	// only).
	CacheBytes int64
	// MaxCachedHits bounds the per-entry result size admitted to the cache:
	// larger hit sets are served but not retained, keeping the cache's
	// memory footprint proportional to CacheEntries. 0 means
	// DefaultMaxCachedHits.
	MaxCachedHits int
	// MaxInFlight bounds concurrently served query requests; 0 means
	// 4×GOMAXPROCS.
	MaxInFlight int
	// Tenants are the API-key tenants (see ParseAPIKeys); requests whose
	// X-API-Key matches no tenant run as the anonymous tenant. Empty means
	// open mode: everyone is anonymous.
	Tenants []TenantConfig
	// AnonTenant sets the anonymous tenant's quotas when Tenants does not
	// define a tenant named "anonymous". The zero value means unlimited —
	// open mode keeps its pre-tenant behaviour.
	AnonTenant TenantConfig
	// AdmissionQueue bounds the number of requests parked waiting for an
	// execution slot; beyond it requests are shed with 429 over_capacity.
	// 0 means 8×MaxInFlight.
	AdmissionQueue int
	// AdmissionMaxWait bounds how long one request may queue before being
	// shed; 0 means DefaultAdmissionMaxWait.
	AdmissionMaxWait time.Duration
	// MaxPatternBytes bounds accepted pattern lengths; oversized patterns
	// are rejected with 400 before any fan-out is paid. 0 means
	// DefaultMaxPatternBytes.
	MaxPatternBytes int
	// MaxK bounds accepted top-k sizes; 0 means 10000.
	MaxK int
	// MaxBatch bounds the number of queries in one batch request; 0 means
	// 256.
	MaxBatch int
	// MaxDocBytes bounds the body of a document PUT; 0 means
	// DefaultMaxDocBytes.
	MaxDocBytes int64
	// Metrics is the registry GET /metrics renders. Nil means the server
	// creates a private one — metrics always work; pass a shared registry
	// (also handed to the ingest store and follower) so every layer's
	// series appear on one scrape.
	Metrics *obs.Registry
	// SlowQueryThreshold enables the slow-query log: requests at or above
	// it are retained with their per-stage trace breakdown and served at
	// GET /v1/debug/slowlog. 0 disables the log (and the per-request trace
	// allocation with it).
	SlowQueryThreshold time.Duration
	// SlowLogEntries bounds the slow-query ring buffer; 0 means
	// obs.DefaultSlowLogEntries.
	SlowLogEntries int
	// AccessLog, when non-nil, receives one structured line per request
	// (request id, method, path, status, bytes, duration). Nil disables
	// access logging.
	AccessLog *olog.Logger
	// PromoteWait bounds how long POST /v1/promote may spend draining the
	// old primary's feed before taking over from the last applied position;
	// 0 means DefaultPromoteWait.
	PromoteWait time.Duration
	// MappedStats, when non-nil, supplies the zero-copy serving counters
	// (mmap'd bytes, decode skips, collection fault-ins) rendered as the
	// /v1/stats "mapped" section. The daemon wires it to the catalog's
	// MappedStats method when serving from an index cache.
	MappedStats func() catalog.MappedStats
}

// DefaultPromoteWait is the default drain deadline of POST /v1/promote.
const DefaultPromoteWait = 10 * time.Second

// DefaultMaxPatternBytes is the default pattern length limit (4 KiB).
const DefaultMaxPatternBytes = 4096

// DefaultMaxDocBytes is the default document PUT body limit (16 MiB).
const DefaultMaxDocBytes = 16 << 20

// Collection is the query surface the server needs from a collection: both
// the immutable catalog.Collection and the ingest layer's mutable View
// satisfy it. ID must be process-unique per collection *instance* (any
// mutation yields a new instance), which — together with the backend Spec —
// keys the result cache. Spec names the collection's index backend and its
// parameters; the server consults its Capabilities before dispatching an
// operation, so a combination the backend cannot answer (top-k on the
// approximate ε-index) is rejected with a typed 4xx instead of reaching the
// fan-out.
type Collection interface {
	ID() uint64
	Name() string
	TauMin() float64
	Spec() core.BackendSpec
	// Estimate prices a pattern of the given length against this collection
	// from already-available stats — no index access — in core cost units;
	// the admission tier sheds queries estimated over the tenant's budget
	// before any fan-out is paid.
	Estimate(patternLen int) core.QueryEstimate
	// Exec is the one query entry point: it runs q, recording per-stage
	// timings (shard fan-out, backend search, merge) into o.Trace and
	// resource counters (shards, candidates, suffix steps, index bytes, merge
	// comparisons) into o.Cost; a nil trace or cost records nothing.
	Exec(q core.Query, o catalog.ExecOpts) (catalog.Result, error)
}

// source resolves collections by name. One generic adapter covers every
// provider (the static catalog, the ingest store, a follower's store):
// anything with Get/Names/Stats whose collections satisfy Collection is a
// source, so the query path is written once against this interface instead
// of once per provider.
type source interface {
	Get(name string) (Collection, bool)
	Names() []string
	Stats() []catalog.Info
}

// provider is the concrete surface of a collection provider; C is its own
// collection type (*catalog.Collection, *ingest.View, …).
type provider[C Collection] interface {
	Get(name string) (C, bool)
	Names() []string
	Stats() []catalog.Info
}

// adapted lifts a provider's concrete collection type to the Collection
// interface — the one bit Go's type system cannot do implicitly.
type adapted[C Collection, P provider[C]] struct{ p P }

func (a adapted[C, P]) Get(name string) (Collection, bool) {
	col, ok := a.p.Get(name)
	if !ok {
		return nil, false
	}
	return col, true
}
func (a adapted[C, P]) Names() []string       { return a.p.Names() }
func (a adapted[C, P]) Stats() []catalog.Info { return a.p.Stats() }

// newSource adapts any provider into a source.
func newSource[C Collection, P provider[C]](p P) source { return adapted[C, P]{p} }

// DefaultCacheEntries is the default LRU capacity.
const DefaultCacheEntries = 1024

// DefaultCacheBytes is the default result-cache byte budget (64 MiB).
const DefaultCacheBytes = 64 << 20

// DefaultAdmissionMaxWait is the default bound on time spent queued for an
// execution slot.
const DefaultAdmissionMaxWait = 5 * time.Second

// DefaultMaxCachedHits is the default per-entry size cap of the result
// cache.
const DefaultMaxCachedHits = 10000

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.MaxCachedHits == 0 {
		c.MaxCachedHits = DefaultMaxCachedHits
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.AdmissionQueue <= 0 {
		c.AdmissionQueue = 8 * c.MaxInFlight
	}
	if c.AdmissionMaxWait <= 0 {
		c.AdmissionMaxWait = DefaultAdmissionMaxWait
	}
	if c.MaxPatternBytes <= 0 {
		c.MaxPatternBytes = DefaultMaxPatternBytes
	}
	if c.MaxK <= 0 {
		c.MaxK = 10000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxDocBytes <= 0 {
		c.MaxDocBytes = DefaultMaxDocBytes
	}
	if c.PromoteWait <= 0 {
		c.PromoteWait = DefaultPromoteWait
	}
	return c
}

// Server is the HTTP handler serving a catalog, an ingest store, or a
// replicated store.
type Server struct {
	src      source
	role     atomic.Value      // Role; replica→primary flips at promotion
	ingest   *ingest.Store     // the local store; nil on a static server
	feed     *replica.Feed     // present whenever there is a local store
	follower *replica.Follower // replica only (kept after promotion)
	cfg      Config
	cache    *lru
	stats    *stats
	metrics  *obs.Registry
	slowlog  *obs.SlowLog // nil when SlowQueryThreshold is 0
	access   *olog.Logger // nil disables access logging
	tenants  *tenantSet
	adm      *admitter
	mux      *http.ServeMux
	start    time.Time

	// promoteMu serialises POST /v1/promote; fencedNoted makes the
	// demotion transition (primary→fenced) counted exactly once.
	promoteMu   sync.Mutex
	fencedNoted atomic.Bool
	transMu     sync.Mutex
	transitions []RoleTransition
}

// RoleTransition is one recorded role change, reported in /v1/stats.
type RoleTransition struct {
	From Role      `json:"from"`
	To   Role      `json:"to"`
	At   time.Time `json:"at"`
}

// Role returns the server's current assigned role. A demoted primary keeps
// RolePrimary here; EffectiveRole folds the fenced state in.
func (s *Server) Role() Role { return s.role.Load().(Role) }

// EffectiveRole is the role clients observe: the assigned role, except that
// a fenced primary reports RoleFenced.
func (s *Server) EffectiveRole() Role {
	r := s.Role()
	if r == RolePrimary && s.ingest != nil {
		if fenced, _ := s.ingest.Fenced(); fenced {
			return RoleFenced
		}
	}
	return r
}

// setRole flips the assigned role, recording the transition (event list and
// ustridx_role_transitions_total).
func (s *Server) setRole(to Role) {
	from := s.Role()
	if from == to {
		return
	}
	s.role.Store(to)
	s.recordTransition(from, to)
}

// recordTransition appends one role-transition event and bumps its counter.
func (s *Server) recordTransition(from, to Role) {
	s.stats.roleTransitions.With(string(from), string(to)).Inc()
	s.transMu.Lock()
	s.transitions = append(s.transitions, RoleTransition{From: from, To: to, At: time.Now().UTC()})
	s.transMu.Unlock()
}

// noteFenced records the primary→fenced demotion exactly once.
func (s *Server) noteFenced() {
	if s.fencedNoted.CompareAndSwap(false, true) {
		s.stats.demotions.Inc()
		s.recordTransition(RolePrimary, RoleFenced)
	}
}

// New builds a read-only server over cat; mutation endpoints answer 403.
func New(cat *catalog.Catalog, cfg Config) *Server {
	return newServer(newSource[*catalog.Collection](cat), RoleStatic, nil, cfg)
}

// NewIngest builds a mutable primary over an ingest store: queries are
// answered from each collection's current snapshot, the mutation endpoints
// are live, and followers can tail the replication feed.
func NewIngest(st *ingest.Store, cfg Config) *Server {
	return newServer(newSource[*ingest.View](st), RolePrimary, st, cfg)
}

// NewReplica builds a read-only server over a follower's replicated store:
// queries are answered from the follower's views, mutations answer 403
// pointing at the primary, and /v1/stats reports replication lag.
func NewReplica(f *replica.Follower, cfg Config) *Server {
	s := newServer(newSource[*ingest.View](f.Store()), RoleReplica, f.Store(), cfg)
	s.follower = f
	return s
}

func newServer(src source, role Role, st *ingest.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		src:     src,
		ingest:  st,
		cfg:     cfg,
		stats:   newStats(reg),
		metrics: reg,
		slowlog: obs.NewSlowLog(cfg.SlowQueryThreshold, cfg.SlowLogEntries),
		access:  cfg.AccessLog,
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.role.Store(role)
	s.tenants = newTenantSet(cfg.Tenants, cfg.AnonTenant, s.stats)
	s.adm = newAdmitter(cfg.MaxInFlight, cfg.AdmissionQueue, cfg.AdmissionMaxWait)
	if cfg.CacheEntries > 0 {
		s.cache = newLRU(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.registerServingMetrics(reg)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/debug/slowlog", s.handleSlowLog)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/query", s.limited("query", http.MethodGet, s.handleOp(core.OpSearch)))
	s.mux.HandleFunc("/v1/topk", s.limited("topk", http.MethodGet, s.handleOp(core.OpTopK)))
	s.mux.HandleFunc("/v1/count", s.limited("count", http.MethodGet, s.handleOp(core.OpCount)))
	s.mux.HandleFunc("/v1/batch", s.limited("batch", http.MethodPost, s.handleBatch))
	s.mux.HandleFunc("PUT /v1/collections/{collection}/documents/{doc}",
		s.limited("put", http.MethodPut, s.handlePut))
	s.mux.HandleFunc("DELETE /v1/collections/{collection}/documents/{doc}",
		s.limited("delete", http.MethodDelete, s.handleDelete))
	s.mux.HandleFunc("/v1/compact", s.limited("compact", http.MethodPost, s.handleCompact))
	s.mux.HandleFunc("/v1/promote", s.limitedSystem("promote", http.MethodPost, s.handlePromote))
	// The replication endpoints are registered on every server with a local
	// store — a replica must already own them so a promotion can start
	// serving the feed without rebuilding the mux — and gated by the current
	// role at request time (a replica answers wrong_role, a fenced primary
	// stale_epoch).
	if st != nil {
		s.feed = replica.NewFeed(st)
		s.mux.HandleFunc("/v1/replication/wal",
			s.limitedSystem("replication_wal", http.MethodGet, s.handleReplicationWAL))
		s.mux.HandleFunc("/v1/replication/snapshot",
			s.limitedSystem("replication_snapshot", http.MethodGet, s.handleReplicationSnapshot))
		s.mux.HandleFunc("/v1/replication/file",
			s.limitedSystem("replication_file", http.MethodGet, s.handleReplicationFile))
	}
	return s
}

// buildInfo is the build_info content shared by /metrics, /v1/stats and the
// daemon's -version flag.
func buildInfo() (version, goVersion, backends string) {
	return obs.Version, obs.GoVersion(), strings.Join(core.BackendKinds(), ",")
}

// registerServingMetrics publishes the serving tier's registry-level series:
// build_info, the role, and scrape-time gauges for the in-flight limiter,
// the result cache and uptime.
func (s *Server) registerServingMetrics(r *obs.Registry) {
	version, goVersion, backends := buildInfo()
	r.GaugeVec("ustridx_build_info",
		"Build metadata; the value is always 1.",
		"version", "go", "backends").With(version, goVersion, backends).SetInt(1)
	roleGauge := r.GaugeVec("ustridx_role",
		"Server role; 1 on the current effective role, 0 elsewhere.", "role")
	r.GaugeFunc("ustridx_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	inflight := r.Gauge("ustridx_inflight_requests", "Query requests currently executing.")
	inflightLimit := r.Gauge("ustridx_inflight_limit", "In-flight request bound.")
	queueDepth := r.Gauge("ustridx_admission_queue_depth", "Requests parked in the admission queue.")
	queueLimit := r.Gauge("ustridx_admission_queue_limit", "Admission queue depth bound.")
	tenantInflight := r.GaugeVec("ustridx_tenant_inflight",
		"Requests currently executing, by tenant.", "tenant")
	tenantQueued := r.GaugeVec("ustridx_tenant_queued",
		"Requests parked in the admission queue, by tenant.", "tenant")
	cacheEntries := r.Gauge("ustridx_cache_entries", "Result cache entries resident.")
	cacheCapacity := r.Gauge("ustridx_cache_capacity", "Result cache entry bound.")
	cacheBytes := r.Gauge("ustridx_cache_bytes", "Result cache accounted resident bytes.")
	cacheMaxBytes := r.Gauge("ustridx_cache_max_bytes", "Result cache byte budget (0 = unbounded).")
	slowTotal := r.Gauge("ustridx_slow_queries", "Requests ever recorded in the slow-query log.")
	r.OnScrape(func() {
		cur := s.EffectiveRole()
		for _, role := range []Role{RoleStatic, RolePrimary, RoleReplica, RoleFenced} {
			v := int64(0)
			if role == cur {
				v = 1
			}
			roleGauge.With(string(role)).SetInt(v)
		}
		inflight.SetInt(int64(s.adm.Inflight()))
		inflightLimit.SetInt(int64(s.cfg.MaxInFlight))
		queueDepth.SetInt(int64(s.adm.Queued()))
		queueLimit.SetInt(int64(s.cfg.AdmissionQueue))
		for _, t := range s.tenants.all {
			infl, queued := s.adm.occupancy(t)
			tenantInflight.With(t.cfg.Name).SetInt(int64(infl))
			tenantQueued.With(t.cfg.Name).SetInt(int64(queued))
		}
		if s.cache != nil {
			cacheEntries.SetInt(int64(s.cache.Len()))
			cacheCapacity.SetInt(int64(s.cfg.CacheEntries))
			cacheBytes.SetInt(s.cache.Bytes())
			if s.cfg.CacheBytes > 0 {
				cacheMaxBytes.SetInt(s.cfg.CacheBytes)
			}
		}
		slowTotal.SetInt(s.slowlog.Total())
	})
}

// handleMetrics renders the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// handleSlowLog serves the slow-query ring buffer, newest first, each entry
// with its per-stage trace breakdown.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
		return
	}
	entries := s.slowlog.Snapshot()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":      s.slowlog != nil,
		"threshold_ms": float64(s.slowlog.Threshold().Microseconds()) / 1e3,
		"total":        s.slowlog.Total(),
		"entries":      entries,
	})
}

// mutable reports whether this server accepts writes. A fenced primary
// still counts: the fence is enforced by the ingest store itself, so the
// write path answers the typed 409 stale_epoch instead of a generic 403.
func (s *Server) mutable() bool { return s.Role() == RolePrimary && s.ingest != nil }

// ServeHTTP implements http.Handler. Every request is assigned its
// end-to-end id here (honouring a well-formed client X-Request-Id,
// generating one otherwise), which is echoed on the response, threaded
// through the context, and — when access logging is configured — keys one
// structured access-log line per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := sanitizeRequestID(r.Header.Get(RequestIDHeader))
	if rid == "" {
		rid = newRequestID()
	}
	w.Header().Set(RequestIDHeader, rid)
	tn := s.tenants.resolve(r.Header.Get(APIKeyHeader))
	ctx := context.WithValue(r.Context(), requestIDKey, rid)
	ctx = context.WithValue(ctx, tenantCtxKey, tn)
	r = r.WithContext(ctx)
	if s.access == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	begin := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.access.Info("request",
		"request_id", rid,
		"tenant", tn.cfg.Name,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"bytes", sw.bytes,
		"duration_us", time.Since(begin).Microseconds(),
		"remote", r.RemoteAddr)
}

// httpError is an error with a dedicated status code. Admission sheds also
// carry a typed code (over_quota, over_budget, over_capacity) and the
// back-off the client should honour; writeError turns those into the
// Retry-After header and the "code"/"retry_after_s" body fields.
type httpError struct {
	status     int
	msg        string
	code       string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorStatus maps an error to its HTTP status code. Capability rejections
// (core.ErrUnsupportedQuery) are 422: the request is well-formed, the
// collection's backend just cannot answer it.
func errorStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, core.ErrUnsupportedQuery):
		return http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrEmptyPattern),
		errors.Is(err, core.ErrBadPattern),
		errors.Is(err, core.ErrTauOutOfRange),
		errors.Is(err, core.ErrTauBelowTauMin):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
	// Code types admission sheds (over_quota, over_budget, over_capacity)
	// so clients can react without parsing the message.
	Code string `json:"code,omitempty"`
	// RetryAfterS is the fractional back-off in seconds; the Retry-After
	// header carries the same value rounded up to whole seconds.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// writeError answers a request with err's status and JSON body. Every 429
// sets Retry-After: the bucket-refill time for rate sheds, the observed
// service time for quota/capacity sheds — never a bare 429 the client can
// only retry blind against.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := errorStatus(err)
	resp := errorResponse{Error: err.Error()}
	var he *httpError
	if errors.As(err, &he) {
		resp.Code = he.code
		if status == http.StatusTooManyRequests {
			ra := he.retryAfter
			if ra <= 0 {
				ra = time.Second
			}
			resp.RetryAfterS = ra.Seconds()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(ra)))
		}
	}
	writeJSON(w, status, resp)
}

// retryAfterSeconds renders a back-off as the whole-second Retry-After
// header value: rounded up, never zero (a zero header invites an immediate
// retry storm).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// limited wraps a query handler with method filtering, admission control
// (the tenant's token bucket and quotas, then the weighted admission
// queue), request/error/rejection/latency accounting, a per-request cost
// accumulator (always on — the counters ride existing query work), and a
// per-request trace allocated when the slow-query log can consume it or
// the request asks for debug headers (X-Debug-Obs: 1). Sheds answer 429
// with Retry-After and a typed code (see admission.go).
func (s *Server) limited(name, method string, fn func(*http.Request, *obs.Trace, *obs.Cost) (any, error)) http.HandlerFunc {
	return s.governed(name, method, false, fn)
}

// limitedSystem is limited for the daemon's internal endpoints (the
// replication feed): requests run as the built-in system tenant — never
// rate-limited or budget-checked, only bounded by the global execution
// slots — so a follower without an API key cannot be starved by the
// anonymous tenant's quotas.
func (s *Server) limitedSystem(name, method string, fn func(*http.Request, *obs.Trace, *obs.Cost) (any, error)) http.HandlerFunc {
	return s.governed(name, method, true, fn)
}

func (s *Server) governed(name, method string, system bool, fn func(*http.Request, *obs.Trace, *obs.Cost) (any, error)) http.HandlerFunc {
	ep := s.stats.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Inc()
		if r.Method != method {
			ep.reject()
			w.Header().Set("Allow", method)
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
			return
		}
		t := tenantFromContext(r.Context())
		if system || t == nil {
			t = s.tenants.system
		}
		t.requests.Inc()
		waitBegin := time.Now()
		release, shed := s.adm.admit(r.Context(), t)
		if shed != nil {
			ep.reject()
			t.shed(shed.code)
			s.stats.admissionShed.With(shed.code).Inc()
			s.writeError(w, shed)
			return
		}
		defer release()
		s.stats.admissionWait.ObserveDuration(time.Since(waitBegin))
		debug := r.Header.Get(DebugObsHeader) == "1"
		var tr *obs.Trace
		if s.slowlog != nil || debug {
			tr = &obs.Trace{}
		}
		cost := &obs.Cost{}
		begin := time.Now()
		resp, err := fn(r, tr, cost)
		ep.observe(time.Since(begin))
		if debug {
			writeDebugHeaders(w, tr, cost)
		}
		if f, ok := resp.(*os.File); ok && err == nil {
			// A raw file answer (the replication file endpoint).
			http.ServeContent(w, r, "", time.Time{}, f)
			f.Close()
		} else if err != nil {
			ep.errors.Inc()
			s.writeError(w, err)
		} else {
			stop := tr.StartStage("encode")
			writeJSON(w, http.StatusOK, resp)
			stop()
		}
		if tr != nil && s.slowlog != nil {
			entry := obs.SlowEntry{
				Time:           time.Now(),
				RequestID:      RequestIDFromContext(r.Context()),
				Tenant:         t.cfg.Name,
				Endpoint:       name,
				Op:             tr.Op,
				Collection:     tr.Collection,
				Pattern:        tr.Pattern,
				Param:          tr.Param,
				Backend:        tr.Backend,
				Epsilon:        tr.Epsilon,
				Cached:         tr.Cached,
				EstimatedUnits: tr.EstimatedUnits,
				DurationUs:     float64(time.Since(begin).Nanoseconds()) / 1e3,
				Stages:         tr.Stages(),
				Cost:           cost.Snapshot(),
			}
			if err != nil {
				entry.Error = err.Error()
			}
			s.slowlog.Observe(entry)
		}
	}
}

// writeDebugHeaders answers an X-Debug-Obs request with the per-stage
// timings as a Server-Timing header and the cost counters as X-Query-Cost
// (compact JSON). Must run before the status is committed.
func writeDebugHeaders(w http.ResponseWriter, tr *obs.Trace, cost *obs.Cost) {
	if stages := tr.Stages(); len(stages) > 0 {
		var sb strings.Builder
		for i, st := range stages {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s;dur=%.3f", st.Name, st.DurationUs/1e3)
		}
		w.Header().Set("Server-Timing", sb.String())
	}
	if snap := cost.Snapshot(); snap != nil {
		if b, err := json.Marshal(snap); err == nil {
			w.Header().Set("X-Query-Cost", string(b))
		}
	}
}

// Hit is the JSON shape of one occurrence: the catalog's hit type itself, so
// a result travels from Exec into the cache and the encoder without a copy.
type Hit = catalog.DocHit

// QueryResponse answers /v1/query and /v1/topk.
type QueryResponse struct {
	Collection string  `json:"collection"`
	Pattern    string  `json:"pattern"`
	Tau        float64 `json:"tau,omitempty"`
	K          int     `json:"k,omitempty"`
	Count      int     `json:"count"`
	Hits       []Hit   `json:"hits"`
	Cached     bool    `json:"cached"`
	// Approx marks results served by an ε-approximate backend: every hit's
	// true probability exceeds Tau−Epsilon, nothing above Tau was missed,
	// and reported probabilities are within Epsilon below the truth.
	Approx bool `json:"approx,omitempty"`
	// Epsilon is the serving collection's effective additive error bound;
	// omitted for exact backends.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// CountResponse answers /v1/count.
type CountResponse struct {
	Collection string  `json:"collection"`
	Pattern    string  `json:"pattern"`
	Tau        float64 `json:"tau"`
	Count      int     `json:"count"`
	Cached     bool    `json:"cached"`
	// Approx and Epsilon carry the serving backend's error bound, exactly
	// as on QueryResponse.
	Approx  bool    `json:"approx,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
}

// collection resolves the collection query parameter.
func (s *Server) collection(name string) (Collection, error) {
	if name == "" {
		return nil, badRequest("missing collection parameter")
	}
	col, ok := s.src.Get(name)
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown collection %q", name)}
	}
	return col, nil
}

// parseQuery builds the core.Query of one operation from its raw wire
// parameters and applies the server's own bounds (MaxPatternBytes, MaxK) —
// the one request-validation path of /v1/query, /v1/topk, /v1/count and
// every /v1/batch op. tau is read for search and count, k for top-k; the
// other is ignored and its Query field left zero, which keeps it off the
// response (omitempty). What the index itself rejects (a NUL in the pattern, tau
// outside (0, 1] or below the collection's tau_min) is left to
// Query.Validate in execQuery.
func (s *Server) parseQuery(op core.Op, p, tau, k string) (q core.Query, err error) {
	if p == "" {
		return q, badRequest("missing or empty pattern parameter p")
	}
	if len(p) > s.cfg.MaxPatternBytes {
		return q, badRequest("pattern longer than the %d byte limit", s.cfg.MaxPatternBytes)
	}
	q.Op, q.Pattern = op, []byte(p)
	if op != core.OpTopK {
		if tau == "" {
			return q, badRequest("missing tau parameter")
		}
		if q.Tau, err = strconv.ParseFloat(tau, 64); err != nil {
			return q, badRequest("bad tau %q", tau)
		}
		return q, nil
	}
	if k == "" {
		return q, badRequest("missing k parameter")
	}
	if q.K, err = strconv.Atoi(k); err != nil || q.K <= 0 {
		return q, badRequest("bad k %q (want a positive integer)", k)
	}
	if q.K > s.cfg.MaxK {
		return q, badRequest("k exceeds the %d limit", s.cfg.MaxK)
	}
	return q, nil
}

// cacheTag returns the operation's result-cache key tag: "q" for search, "k"
// for top-k, "c" for count (indexed by the core.Op values, in their declared
// order).
func cacheTag(op core.Op) string { return "qkc"[op : op+1] }

// execQuery is the single query-execution path behind /v1/query, /v1/topk,
// /v1/count and every /v1/batch op. It consults the collection backend's
// capabilities before dispatch (top-k on a backend without top-k support is
// a typed core.ErrUnsupportedQuery, mapped to 422), validates, consults the
// result cache (whose key folds in the backend spec), runs the query through
// the collection's Exec, and assembles the response — including the
// approx/epsilon annotation for ε-approximate collections.
//
// The request-level cost accumulates across ops (a batch shares one cost);
// this op's own contribution — the delta since entry — is what lands in the
// per-collection cost histograms, and only for executed queries: a cache
// hit costs a lookup, not a fan-out, and recording zeros for it would drag
// every cost distribution toward the hit rate.
//
// Between the cache lookup and the fan-out sits the pre-execution cost
// estimate: a cache miss is priced from collection stats alone, and when
// the estimate exceeds the tenant's per-query budget the op is shed with a
// typed over_budget 429 before any index work is paid. The order matters —
// a cached answer is nearly free to serve, so budget sheds apply only to
// work that would actually cost something. Executed queries then feed the
// estimate and the measured/estimated ratio into histograms, so estimator
// drift is observable. t may be nil (direct internal callers): no budget
// applies.
func (s *Server) execQuery(t *tenant, tr *obs.Trace, cost *obs.Cost, col Collection, collName string, q core.Query) (any, error) {
	spec := col.Spec()
	caps := spec.Capabilities()
	if q.Op == core.OpTopK && !caps.TopK {
		return nil, fmt.Errorf("%w: top-k requires an exact backend; collection %q uses %s",
			core.ErrUnsupportedQuery, collName, spec)
	}
	if err := q.Validate(col.TauMin()); err != nil {
		return nil, err
	}
	if !caps.Exact {
		s.stats.approxQueries.Inc()
	}
	param := strconv.FormatFloat(q.Tau, 'g', -1, 64)
	if q.Op == core.OpTopK {
		param = strconv.Itoa(q.K)
	}
	op := q.Op.String()
	if tr != nil {
		tr.Op = op
		tr.Collection = collName
		tr.Pattern = string(q.Pattern)
		tr.Param = param
		tr.Backend = spec.Kind
		tr.Epsilon = spec.Epsilon
	}
	begin := time.Now()
	defer func() {
		s.stats.query(collName, op, spec.Kind, spec.Epsilon).
			ObserveDuration(time.Since(begin))
	}()
	key := cacheKey(cacheTag(q.Op), col, string(q.Pattern), param)
	stop := tr.StartStage("cache_lookup")
	hits, n, ok := s.lookup(key)
	stop()
	if ok {
		cost.CacheHit()
		if !caps.Exact {
			s.stats.approxCacheHits.Inc()
		}
		if tr != nil {
			tr.Cached = true
		}
		return assembleResponse(q, collName, caps, hits, n, true), nil
	}
	if s.cache != nil {
		cost.CacheMiss()
	}
	est := col.Estimate(len(q.Pattern))
	if tr != nil {
		tr.EstimatedUnits = est.Units
	}
	if t != nil && t.cfg.MaxUnits > 0 && est.Units > t.cfg.MaxUnits {
		t.shed(codeOverBudget)
		s.stats.admissionShed.With(codeOverBudget).Inc()
		// Retry-After is nominal here — the code is the real signal: the
		// same query will be shed again; narrow it instead.
		return nil, shedError(codeOverBudget, time.Second, fmt.Sprintf(
			"query estimated at %.0f cost units, over tenant %q's per-query budget of %g",
			est.Units, t.cfg.Name, t.cfg.MaxUnits))
	}
	var before obs.Cost
	if cost != nil {
		before = *cost
	}
	res, err := col.Exec(q, catalog.ExecOpts{Trace: tr, Cost: cost})
	if err != nil {
		return nil, err
	}
	if cost != nil {
		delta := cost.DeltaSince(before)
		s.stats.cost(collName, spec.Kind).observe(delta)
		s.stats.estimatedUnits.Observe(est.Units)
		if est.Units > 0 {
			measured := core.CostUnits(delta.Candidates, delta.SuffixSteps,
				delta.IndexBytes, delta.MergeComparisons, delta.ShardsTouched)
			s.stats.estimateRatio.Observe(measured / est.Units)
		}
	}
	s.store(key, res.Hits, res.Count)
	return assembleResponse(q, collName, caps, res.Hits, res.Count, false), nil
}

// assembleResponse builds the JSON shape for one executed query. A search or
// top-k without hits encodes "hits":[] — never null — so hits is made
// non-nil here, for fresh and cached results alike.
func assembleResponse(q core.Query, collName string, caps core.Capabilities, hits []Hit, n int, cached bool) any {
	if q.Op == core.OpCount {
		return &CountResponse{Collection: collName, Pattern: string(q.Pattern), Tau: q.Tau,
			Count: n, Cached: cached, Approx: !caps.Exact, Epsilon: caps.Epsilon}
	}
	if hits == nil {
		hits = []Hit{}
	}
	return &QueryResponse{Collection: collName, Pattern: string(q.Pattern), Tau: q.Tau, K: q.K,
		Count: len(hits), Hits: hits, Cached: cached, Approx: !caps.Exact, Epsilon: caps.Epsilon}
}

// handleOp is the handler of /v1/query, /v1/topk and /v1/count: the three
// differ only in the operation their parameters are parsed for.
func (s *Server) handleOp(op core.Op) func(*http.Request, *obs.Trace, *obs.Cost) (any, error) {
	return func(r *http.Request, tr *obs.Trace, cost *obs.Cost) (any, error) {
		v := r.URL.Query()
		col, err := s.collection(v.Get("collection"))
		if err != nil {
			return nil, err
		}
		q, err := s.parseQuery(op, v.Get("p"), v.Get("tau"), v.Get("k"))
		if err != nil {
			return nil, err
		}
		return s.execQuery(tenantFromContext(r.Context()), tr, cost, col, v.Get("collection"), q)
	}
}

// BatchQuery is one entry of a batch request. Op selects the operation:
// "search" (default), "topk" or "count".
type BatchQuery struct {
	Op      string  `json:"op"`
	Pattern string  `json:"p"`
	Tau     float64 `json:"tau"`
	K       int     `json:"k"`
}

// batchOps maps BatchQuery.Op onto the operation it names.
var batchOps = map[string]core.Op{
	"":                     core.OpSearch,
	core.OpSearch.String(): core.OpSearch,
	core.OpTopK.String():   core.OpTopK,
	core.OpCount.String():  core.OpCount,
}

// BatchRequest is the /v1/batch payload.
type BatchRequest struct {
	Collection string       `json:"collection"`
	Queries    []BatchQuery `json:"queries"`
}

// BatchResult is one entry of a batch response: the matching single-query
// response, or an error for that entry alone — a failing op never fails the
// whole batch. Code classifies the failure ("unsupported_query" for a
// capability rejection, "over_budget" for a per-op budget shed,
// "bad_request" otherwise) so clients can tell a backend that cannot
// answer the op from a malformed op without parsing the message. A shed op
// also carries RetryAfterS — the batch's HTTP status stays 200, so the
// per-op body is the only place the back-off can ride. RequestID is the
// batch request's end-to-end id suffixed with the op's index
// ("<id>/<index>"), so one op's outcome can be correlated with the batch's
// access-log line.
type BatchResult struct {
	RequestID   string  `json:"request_id,omitempty"`
	Result      any     `json:"result,omitempty"`
	Error       string  `json:"error,omitempty"`
	Code        string  `json:"code,omitempty"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// BatchResponse answers /v1/batch.
type BatchResponse struct {
	Collection string        `json:"collection"`
	Results    []BatchResult `json:"results"`
}

func (s *Server) handleBatch(r *http.Request, tr *obs.Trace, cost *obs.Cost) (any, error) {
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("bad batch payload: %v", err)
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("batch contains no queries")
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		return nil, badRequest("batch exceeds the %d query limit", s.cfg.MaxBatch)
	}
	col, err := s.collection(req.Collection)
	if err != nil {
		return nil, err
	}
	rid := RequestIDFromContext(r.Context())
	tn := tenantFromContext(r.Context())
	resp := BatchResponse{Collection: req.Collection, Results: make([]BatchResult, len(req.Queries))}
	for i, bq := range req.Queries {
		// Every op is parsed by the same parseQuery and funnels through the
		// same execQuery path the single endpoints use, so bounds, capability
		// checks, cache keys and the approx/epsilon annotations are identical
		// batch or not. The batch's single trace and cost accumulate every
		// op's stages and counters; the identity fields end up describing the
		// last op, so the slow log's Op/Pattern are cleared below for
		// multi-query batches.
		//
		// parseQuery reads the wire's strings, so the decoded numbers are
		// rendered back for it ('g' with precision -1 round-trips a float64
		// exactly). An unknown op parses as a search, so that a bad pattern
		// is still the first thing reported.
		op, known := batchOps[bq.Op]
		q, qerr := s.parseQuery(op, bq.Pattern,
			strconv.FormatFloat(bq.Tau, 'g', -1, 64), strconv.Itoa(bq.K))
		if qerr == nil && !known {
			qerr = badRequest("unknown op %q", bq.Op)
		}
		var result any
		if qerr == nil {
			result, qerr = s.execQuery(tn, tr, cost, col, req.Collection, q)
		}
		opID := ""
		if rid != "" {
			opID = fmt.Sprintf("%s/%d", rid, i)
		}
		if qerr != nil {
			code := "bad_request"
			br := BatchResult{RequestID: opID, Error: qerr.Error()}
			var he *httpError
			switch {
			case errors.Is(qerr, core.ErrUnsupportedQuery):
				code = "unsupported_query"
			case errors.As(qerr, &he) && he.code != "":
				code = he.code
				if he.retryAfter > 0 {
					br.RetryAfterS = he.retryAfter.Seconds()
				}
			}
			br.Code = code
			resp.Results[i] = br
			continue
		}
		resp.Results[i] = BatchResult{RequestID: opID, Result: result}
	}
	if tr != nil && len(req.Queries) > 1 {
		// The per-query fields describe only the last op; blank them so a
		// slow batch's log entry does not misattribute the whole duration.
		tr.Op, tr.Pattern, tr.Param, tr.Cached = "", "", "", false
	}
	return resp, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"collections": len(s.src.Names()),
		"uptime_s":    int(time.Since(s.start).Seconds()),
	})
}

// CollectionStats is the /v1/stats JSON shape of one collection.
type CollectionStats struct {
	Name      string  `json:"name"`
	Docs      int     `json:"docs"`
	Positions int     `json:"positions"`
	Shards    int     `json:"shards"`
	TauMin    float64 `json:"tau_min"`
	// Backend names the collection's index backend kind ("plain",
	// "compressed" or "approx").
	Backend string `json:"backend"`
	// Epsilon is the approx backend's additive error bound; omitted for
	// exact backends.
	Epsilon float64 `json:"epsilon,omitempty"`
	// IndexBytes is the summed resident footprint of the collection's
	// per-document indexes, so the compressed backend's savings are
	// observable per collection.
	IndexBytes int `json:"index_bytes"`
}

// memoryStats is the /v1/stats "memory" section: the process-wide heap
// alongside the per-collection index accounting that explains it.
type memoryStats struct {
	// HeapAllocBytes and HeapSysBytes are the Go runtime's live-heap and
	// OS-reserved sizes.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	// IndexBytesTotal sums IndexBytes over every collection.
	IndexBytesTotal int `json:"index_bytes_total"`
	// Collections itemises index memory per collection.
	Collections []collectionMemory `json:"collections"`
}

// collectionMemory is one collection's entry in the memory section.
type collectionMemory struct {
	Name       string `json:"name"`
	Backend    string `json:"backend"`
	Docs       int    `json:"docs"`
	IndexBytes int    `json:"index_bytes"`
	// BytesPerDoc is IndexBytes/Docs — the capacity-planning number.
	BytesPerDoc int `json:"bytes_per_doc"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
		return
	}
	colls := make([]CollectionStats, 0)
	mem := memoryStats{Collections: make([]collectionMemory, 0)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mem.HeapAllocBytes = ms.HeapAlloc
	mem.HeapSysBytes = ms.HeapSys
	for _, info := range s.src.Stats() {
		colls = append(colls, CollectionStats{
			Name:       info.Name,
			Docs:       info.Docs,
			Positions:  info.Positions,
			Shards:     info.Shards,
			TauMin:     info.TauMin,
			Backend:    info.Backend,
			Epsilon:    info.Epsilon,
			IndexBytes: info.IndexBytes,
		})
		cm := collectionMemory{
			Name:       info.Name,
			Backend:    info.Backend,
			Docs:       info.Docs,
			IndexBytes: info.IndexBytes,
		}
		if info.Docs > 0 {
			cm.BytesPerDoc = info.IndexBytes / info.Docs
		}
		mem.IndexBytesTotal += info.IndexBytes
		mem.Collections = append(mem.Collections, cm)
	}
	approxQ, approxHits := s.stats.approxCounts()
	version, goVersion, backends := buildInfo()
	out := map[string]any{
		"role": string(s.EffectiveRole()),
		"build": map[string]any{
			"version":  version,
			"go":       goVersion,
			"backends": strings.Split(backends, ","),
		},
		"collections": colls,
		"memory":      mem,
		// Per-endpoint counters. "requests" counts everything that reached
		// the endpoint; "rejected" the subset refused before execution
		// (wrong method, shed load); "observed" the subset that executed —
		// avg/max latency are over "observed" only, so shed load never
		// skews them.
		"endpoints": s.stats.snapshot(),
		"inflight": map[string]any{
			"limit":   s.cfg.MaxInFlight,
			"current": s.adm.Inflight(),
		},
		// The admission tier: global slot/queue occupancy and every
		// tenant's counters, quotas and sheds (see OPERATIONS.md).
		"admission": map[string]any{
			"slots":       s.cfg.MaxInFlight,
			"inflight":    s.adm.Inflight(),
			"queued":      s.adm.Queued(),
			"queue_limit": s.cfg.AdmissionQueue,
			"max_wait_ms": float64(s.cfg.AdmissionMaxWait.Microseconds()) / 1e3,
		},
		"tenants": s.tenantSnapshots(),
		// Queries answered by ε-approximate collections (cache hits
		// included), and how many of those were served from the cache.
		"approx": map[string]any{
			"queries":    approxQ,
			"cache_hits": approxHits,
		},
	}
	if s.cfg.MappedStats != nil {
		// Zero-copy serving state: how much index storage is mmap'd (file-
		// backed — not part of the heap numbers above), how many cache loads
		// skipped the decode path, and how often evicted collections faulted
		// back in.
		out["mapped"] = s.cfg.MappedStats()
	}
	if s.ingest != nil {
		out["ingest"] = s.ingest.Status()
	}
	if s.mutable() {
		puts, deletes, compactions := s.ingest.Counters()
		out["mutations"] = map[string]any{
			"puts":        puts,
			"deletes":     deletes,
			"compactions": compactions,
		}
	}
	if s.follower != nil && s.Role() == RoleReplica {
		out["replication"] = map[string]any{
			"primary":     s.follower.Primary(),
			"caught_up":   s.follower.CaughtUp(),
			"collections": s.follower.Status(),
		}
	}
	if s.ingest != nil {
		s.transMu.Lock()
		transitions := append([]RoleTransition(nil), s.transitions...)
		s.transMu.Unlock()
		if transitions == nil {
			transitions = []RoleTransition{}
		}
		fenced, fence := s.ingest.Fenced()
		failover := map[string]any{
			"fenced":                 fenced,
			"promotions":             s.stats.promotions.Value(),
			"demotions":              s.stats.demotions.Value(),
			"stale_epoch_rejections": s.ingest.StaleEpochRejections(),
			"transitions":            transitions,
		}
		if fenced {
			failover["fence"] = fence
		}
		if s.follower != nil && s.follower.Promoted() {
			failover["promoted_from"] = s.follower.Primary()
			failover["collections"] = s.follower.Promotions()
		}
		out["failover"] = failover
	}
	if s.cache != nil {
		hits, misses := s.stats.cacheCounts()
		out["cache"] = map[string]any{
			"capacity":  s.cfg.CacheEntries,
			"entries":   s.cache.Len(),
			"bytes":     s.cache.Bytes(),
			"max_bytes": s.cfg.CacheBytes,
			"oversized": s.stats.cacheOversized.Value(),
			"hits":      hits,
			"misses":    misses,
			"hit_rate":  hitRate(hits, misses),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// tenantSnapshots builds the /v1/stats "tenants" section.
func (s *Server) tenantSnapshots() []TenantSnapshot {
	out := make([]TenantSnapshot, 0, len(s.tenants.all))
	for _, t := range s.tenants.all {
		infl, queued := s.adm.occupancy(t)
		out = append(out, TenantSnapshot{
			Name:             t.cfg.Name,
			Requests:         t.requests.Value(),
			ShedOverQuota:    t.shedQuota.Value(),
			ShedOverBudget:   t.shedBudget.Value(),
			ShedOverCapacity: t.shedCapacity.Value(),
			Inflight:         infl,
			Queued:           queued,
			RateQPS:          t.cfg.RateQPS,
			Burst:            t.cfg.Burst,
			MaxConcurrent:    t.cfg.MaxConcurrent,
			MaxUnits:         t.cfg.MaxUnits,
			Weight:           t.cfg.Weight,
		})
	}
	return out
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// lookup consults the LRU cache and bumps the hit/miss counters.
func (s *Server) lookup(key string) ([]Hit, int, bool) {
	if s.cache == nil {
		return nil, 0, false
	}
	v, ok := s.cache.Get(key)
	if !ok {
		s.stats.cacheMisses.Inc()
		return nil, 0, false
	}
	s.stats.cacheHits.Inc()
	return v.hits, v.count, true
}

// store inserts a successful result into the cache, unless the hit set is
// too large to retain — either over the MaxCachedHits count or over the
// LRU's own byte bound (the entry-count bound is only a memory bound if
// entries themselves are bounded). Refusals are served normally and
// counted in ustridx_cache_oversized_total.
func (s *Server) store(key string, hits []Hit, count int) {
	if s.cache == nil {
		return
	}
	if len(hits) > s.cfg.MaxCachedHits || !s.cache.Put(key, cached{hits: hits, count: count}) {
		s.stats.cacheOversized.Inc()
	}
}
