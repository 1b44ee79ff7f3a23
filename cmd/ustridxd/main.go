// Command ustridxd is the uncertain-string index daemon: it loads or builds
// a sharded multi-document catalog from a directory of collection files and
// serves threshold, top-k, count and batch queries over HTTP/JSON.
//
// Usage:
//
//	ustridxd -data DIR [-addr :7331] [-taumin 0.1] [-shards 0] [-workers 0]
//	         [-backend plain|compressed|approx] [-epsilon 0.05]
//	         [-index-cache DIR] [-mmap] [-hot-collections 0]
//	         [-cache-entries 1024] [-cache-bytes 0] [-inflight 0]
//	         [-api-keys FILE] [-anon-rate 0] [-anon-burst 0]
//	         [-anon-concurrent 0] [-anon-budget 0]
//	         [-admission-queue 0] [-admission-wait 0]
//	         [-wal DIR] [-compact-threshold 64] [-wal-nosync]
//	         [-max-pattern-bytes 4096]
//	         [-slow-query-ms 0] [-debug-addr ""]
//	         [-log-level info] [-access-log PATH]
//	ustridxd -follow URL [-addr :7332] [-taumin 0.1] [-follow-poll 250ms]
//	         [-follow-dir DIR] [-promote-wait 10s]
//	ustridxd -version
//
// Every non-hidden file in -data is parsed as one '%'-separated collection
// (see internal/ustring's text encoding) and served under its base name.
// With -index-cache, built indexes are persisted to (and on restart loaded
// from) the given directory, skipping the expensive Lemma 2 transformation.
// Adding -mmap maps plain and compressed (format-4) index files into the
// process instead of reading them onto the heap: resident memory tracks the
// queried working set rather than the corpus, so corpora larger than RAM
// stay servable, and a compressed document opens in O(1) (a plain one in
// O(its text), which its open proves in range). -hot-collections N
// bounds how many collections are resident at once; the least recently used
// is evicted and transparently re-mapped from -index-cache on its next
// query. See OPERATIONS.md § "Zero-copy serving".
//
// -backend selects the default index backend: "plain" (the paper's
// suffix-array structure; fastest exact queries), "compressed" (FM-index;
// several-fold smaller resident memory at a bounded query-time cost,
// results bit-identical to plain) or "approx" (the paper's Section 7
// ε-index; optimal query time for any pattern length with an additive
// error -epsilon — every reported hit has true probability above τ−ε and
// nothing above τ is missed; query responses carry "approx": true and the
// effective ε, and top-k requests answer 422 because the ε-index cannot
// rank exactly). Mutable collections may override the default per
// collection at creation time via the PUT backend/epsilon query
// parameters; /v1/stats reports every collection's backend, ε and index
// bytes. See OPERATIONS.md for capacity planning.
//
// -api-keys enables per-tenant admission control: each line of the file
// names a tenant, its X-API-Key value, and optional quotas — a token-bucket
// request rate (rate=QPS, burst=N), a concurrent-query cap (concurrent=N),
// a per-query cost budget in estimator units (budget=UNITS; queries whose
// pre-execution estimate exceeds it are refused before any index work), and
// an admission-queue weight (weight=N). Requests without a matching key run
// as the "anonymous" tenant, whose quotas come from the -anon-* flags (or
// from an explicit 'anonymous -' line in the file). Over-quota and
// over-budget requests answer 429 with a Retry-After header and a typed
// "code" in the body; per-tenant counters appear under "tenants" in
// /v1/stats and in the ustridx_tenant_* metric families. See OPERATIONS.md
// § "Tenants, quotas & admission".
//
// With -wal, the daemon serves a mutable catalog: documents can be added,
// replaced and deleted at runtime through PUT/DELETE
// /v1/collections/{c}/documents/{id}, every mutation is WAL-logged under
// the given directory before it is acknowledged, and a background compactor
// folds the live documents into per-document index files named by one
// manifest per collection and truncates the log. On restart the manifest's
// index files are re-opened and the WAL replayed, so acknowledged mutations
// survive crashes; on graceful shutdown the logs are flushed and closed.
//
// With -follow, the daemon is a read replica of another ustridxd started
// with -wal: it bootstraps every collection from the primary's snapshot
// endpoint (the collection's manifest) by copying the index files it lacks,
// tails the primary's write-ahead logs over HTTP (resuming from
// its offset, reconnecting with backoff, and re-bootstrapping after a
// primary compaction), and serves the same read-only query API with
// bit-identical results. Replication lag is reported under "replication" in
// /v1/stats. The -taumin/-shards/-longcap flags must match the primary's; a
// mismatch is detected at bootstrap and logged instead of applied.
//
// A replica started with -follow-dir keeps its replicated state in a
// persistent, fsynced store and is promotable: POST /v1/promote drains the
// primary's feed (bounded by -promote-wait), durably adopts a new fencing
// epoch for every collection and flips the node to a serving primary; the
// demoted primary refuses further writes with 409 stale_epoch the moment it
// sees the new epoch. Without -follow-dir the replica uses a throwaway
// scratch directory with fsync off and re-bootstraps from the primary on
// every restart. See OPERATIONS.md § "Failover runbook".
//
// Endpoints: /v1/query, /v1/topk, /v1/count, /v1/batch, /v1/collections/…,
// /v1/compact, /v1/replication/…, /v1/stats, /metrics (Prometheus text
// exposition covering serving, ingest and replication — see OPERATIONS.md's
// Monitoring section), /v1/debug/slowlog, /healthz — see internal/server for
// the wire format.
//
// The daemon logs structured JSON lines (one object per line with ts,
// level, msg and event fields) to stderr; -log-level sets the minimum
// severity (debug, info, warn or error). -access-log writes one line per
// served HTTP request — keyed by the end-to-end X-Request-Id the server
// generates or propagates — to the given path ("-" means stderr).
//
// -slow-query-ms enables the slow-query log: requests at or above the
// threshold are retained in a ring buffer with a per-stage timing breakdown,
// readable at GET /v1/debug/slowlog. -debug-addr starts a second listener
// serving net/http/pprof under /debug/pprof/ — keep it on a loopback or
// otherwise private address, it is deliberately not exposed on the main
// port. -version prints the build's version, Go toolchain and compiled-in
// backends and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
	"repro/internal/replica"
	"repro/internal/server"

	// Registered on debugMux below, never on the serving mux: the profiler
	// is only reachable through -debug-addr.
	"net/http/pprof"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ustridxd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ustridxd", flag.ExitOnError)
	data := fs.String("data", "", "directory of collection files (required)")
	addr := fs.String("addr", ":7331", "listen address")
	tauMin := fs.Float64("taumin", 0.1, "construction threshold (queries accept any tau ≥ taumin)")
	shards := fs.Int("shards", 0, "query fan-out shards per collection (0 = GOMAXPROCS, capped at 16)")
	workers := fs.Int("workers", 0, "index build worker pool size (0 = GOMAXPROCS)")
	longCap := fs.Int("longcap", 0, "long-pattern blocking cap (0 = library default)")
	backend := fs.String("backend", core.BackendPlain, "index backend for collections: plain (fastest exact queries), compressed (FM-index; several-fold smaller resident memory, results bit-identical) or approx (Section 7 ε-index; optimal query time for any pattern length, additive error epsilon, no top-k)")
	epsilon := fs.Float64("epsilon", 0, "additive error bound for the approx backend (0 = library default); requires -backend approx")
	indexCache := fs.String("index-cache", "", "directory for persisted indexes (load if present, save after build; rebuilt when taumin, the data directory's collection set or a data file's mtime changes)")
	mmapIndexes := fs.Bool("mmap", false, "mmap format-4 index files from -index-cache (and the WAL directory's compaction caches) instead of reading them onto the heap: process start is O(1) per document and resident memory tracks the queried working set, not the corpus")
	hotCollections := fs.Int("hot-collections", 0, "max collections resident at once (0 = unbounded); beyond it the least recently used collection is evicted and transparently re-mapped from -index-cache on its next query (requires -index-cache)")
	cacheEntries := fs.Int("cache-entries", server.DefaultCacheEntries, "result cache capacity (negative disables)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result cache byte budget (0 = 64 MiB, negative = entry count only)")
	inFlight := fs.Int("inflight", 0, "max concurrently served query requests (0 = 4×GOMAXPROCS)")
	apiKeys := fs.String("api-keys", "", "tenant API-key file: one 'name key [rate=QPS] [burst=N] [concurrent=N] [budget=UNITS] [weight=N]' per line; requests without a matching X-API-Key run as the anonymous tenant")
	anonRate := fs.Float64("anon-rate", 0, "anonymous tenant request rate in QPS (0 = unlimited; ignored when -api-keys defines an 'anonymous' tenant)")
	anonBurst := fs.Int("anon-burst", 0, "anonymous tenant burst capacity (0 = max(1, rate))")
	anonConcurrent := fs.Int("anon-concurrent", 0, "anonymous tenant concurrent-query quota (0 = unlimited)")
	anonBudget := fs.Float64("anon-budget", 0, "anonymous tenant per-query cost budget in estimator units (0 = unlimited)")
	admissionQueue := fs.Int("admission-queue", 0, "max requests queued for an execution slot before shedding 429 (0 = 8×inflight)")
	admissionWait := fs.Duration("admission-wait", 0, "max time one request may queue before shedding 429 (0 = 5s)")
	maxPattern := fs.Int("max-pattern-bytes", server.DefaultMaxPatternBytes, "reject query patterns longer than this many bytes with 400")
	wal := fs.String("wal", "", "write-ahead-log directory; enables the mutation endpoints (PUT/DELETE documents, POST compact)")
	compactThreshold := fs.Int("compact-threshold", ingest.DefaultCompactThreshold, "pending documents (delta + tombstones) triggering background compaction (negative disables)")
	walNoSync := fs.Bool("wal-nosync", false, "skip the fsync after every WAL append (faster ingestion; acknowledged mutations may be lost on machine crash)")
	follow := fs.String("follow", "", "primary ustridxd base URL; run as a read replica tailing its write-ahead logs (incompatible with -data and -wal)")
	followPoll := fs.Duration("follow-poll", replica.DefaultPollInterval, "WAL poll interval in replica mode")
	followDir := fs.String("follow-dir", "", "persistent store directory in replica mode; required for the replica to be promotable (POST /v1/promote) — without it, replicated state lives in a throwaway scratch directory with no durability")
	promoteWait := fs.Duration("promote-wait", server.DefaultPromoteWait, "max time POST /v1/promote spends draining the old primary's feed before taking over from the last applied position")
	slowQueryMs := fs.Float64("slow-query-ms", 0, "retain requests at or above this many milliseconds in the slow-query log at /v1/debug/slowlog (0 disables)")
	slowLogEntries := fs.Int("slowlog-entries", 0, "slow-query log ring capacity (0 = library default)")
	debugAddr := fs.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables; keep it private)")
	logLevel := fs.String("log-level", "info", "minimum log severity: debug, info, warn or error")
	accessLog := fs.String("access-log", "", "write one structured JSON line per served HTTP request (keyed by X-Request-Id) to this path (\"-\" = stderr; empty disables)")
	version := fs.Bool("version", false, "print version, Go toolchain and compiled-in backends, then exit")
	fs.Parse(args)

	if *version {
		fmt.Printf("ustridxd %s %s backends=%s\n",
			obs.Version, obs.GoVersion(), strings.Join(core.BackendKinds(), ","))
		return nil
	}

	level, err := olog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	lg := olog.New(os.Stderr, level)

	backendName, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}
	if *epsilon != 0 && backendName != core.BackendApprox {
		return fmt.Errorf("-epsilon requires -backend %s", core.BackendApprox)
	}
	if *hotCollections > 0 && *indexCache == "" {
		return errors.New("-hot-collections needs -index-cache: evicted collections are re-mapped from it")
	}
	if *indexCache != "" && filepath.Clean(*indexCache) == filepath.Clean(*wal) {
		return errors.New("-index-cache and -wal must be different directories: both hold <name>.manifest files")
	}
	opts := catalog.Options{
		TauMin: *tauMin, Shards: *shards, Workers: *workers, LongCap: *longCap,
		Backend: backendName, Epsilon: *epsilon,
		MMap: *mmapIndexes, HotCollections: *hotCollections,
	}
	// Resolve the spec once so the default ε is pinned and every layer (and
	// the cache-mismatch check) compares against the same value.
	spec, err := opts.Spec("")
	if err != nil {
		return err
	}
	opts.Epsilon = spec.Epsilon
	// One registry aggregates every layer's metrics — serving, ingest and
	// replication — on the single /metrics page the server exposes.
	metrics := obs.NewRegistry()
	opts.Metrics = metrics
	cfgBase := server.Config{
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		MaxInFlight:      *inFlight,
		MaxPatternBytes:  *maxPattern,
		AdmissionQueue:   *admissionQueue,
		AdmissionMaxWait: *admissionWait,
		AnonTenant: server.TenantConfig{
			RateQPS:       *anonRate,
			Burst:         *anonBurst,
			MaxConcurrent: *anonConcurrent,
			MaxUnits:      *anonBudget,
		},
		Metrics:            metrics,
		SlowQueryThreshold: time.Duration(*slowQueryMs * float64(time.Millisecond)),
		SlowLogEntries:     *slowLogEntries,
	}
	if *apiKeys != "" {
		f, err := os.Open(*apiKeys)
		if err != nil {
			return fmt.Errorf("opening api-keys file: %w", err)
		}
		tenants, err := server.ParseAPIKeys(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *apiKeys, err)
		}
		cfgBase.Tenants = tenants
		for _, tc := range tenants {
			lg.Info("tenant configured", "tenant", tc.Name,
				"rate_qps", tc.RateQPS, "burst", tc.Burst,
				"concurrent", tc.MaxConcurrent, "budget", tc.MaxUnits, "weight", tc.Weight)
		}
	}
	if *accessLog != "" {
		w, err := openAccessLog(*accessLog)
		if err != nil {
			return err
		}
		cfgBase.AccessLog = olog.New(w, olog.Info)
	}
	if *debugAddr != "" {
		go serveDebug(lg, *debugAddr)
	}
	if *follow != "" {
		if *data != "" || *wal != "" {
			return errors.New("-follow runs a replica with no local data: drop -data and -wal")
		}
		cfgBase.PromoteWait = *promoteWait
		return runReplica(lg, *follow, *addr, opts, *compactThreshold, *followPoll, *followDir, cfgBase)
	}
	if *data == "" {
		return errors.New("-data is required")
	}
	cat, err := loadCatalog(*data, *indexCache, opts, lg.Printf)
	if err != nil {
		return err
	}
	for _, info := range cat.Stats() {
		backendDesc := info.Backend
		if info.Backend == core.BackendApprox {
			backendDesc = fmt.Sprintf("%s ε=%g", info.Backend, info.Epsilon)
		}
		lg.Info("collection loaded",
			"collection", info.Name, "docs", info.Docs, "positions", info.Positions,
			"shards", info.Shards, "taumin", info.TauMin, "backend", backendDesc,
			"index_bytes", info.IndexBytes)
	}

	cfg := cfgBase
	cfg.MappedStats = cat.MappedStats
	var handler http.Handler
	var store *ingest.Store
	if *wal != "" {
		store, err = ingest.Open(cat, ingest.Options{
			Dir:              *wal,
			Catalog:          opts,
			CompactThreshold: *compactThreshold,
			NoSync:           *walNoSync,
			Logf:             lg.Printf,
			Metrics:          metrics,
		})
		if err != nil {
			return err
		}
		lg.Info("mutable serving enabled", "wal_dir", *wal, "compact_threshold", *compactThreshold)
		handler = server.NewIngest(store, cfg)
	} else {
		handler = server.New(cat, cfg)
	}

	// The cleanup flushes and closes the WALs once no more mutations can
	// arrive — after the HTTP server has stopped.
	return serve(lg, *addr, handler, func() error {
		if store == nil {
			return nil
		}
		if err := store.Close(); err != nil {
			return fmt.Errorf("closing ingest store: %w", err)
		}
		lg.Info("ingest store flushed and closed")
		return nil
	})
}

// runReplica starts the daemon as a read replica of the primary at
// primaryURL: a local store, a follower tailing the primary's WAL feed into
// it, and the read-only HTTP front end. With followDir the store is
// persistent and fsynced — the configuration a promotable standby needs,
// since POST /v1/promote must durably adopt a new epoch; without it the
// store lives in a throwaway scratch directory with fsync off (a restart
// re-bootstraps from the primary). Shutdown stops the HTTP server first,
// then the tailers, then the store.
func runReplica(lg *olog.Logger, primaryURL, addr string, opts catalog.Options, compactThreshold int, poll time.Duration, followDir string, cfg server.Config) error {
	dir := followDir
	scratch := followDir == ""
	if scratch {
		tmp, err := os.MkdirTemp("", "ustridxd-replica-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	store, err := ingest.Open(nil, ingest.Options{
		Dir:              dir,
		Catalog:          opts,
		CompactThreshold: compactThreshold,
		NoSync:           scratch,
		Logf:             lg.Printf,
		Metrics:          cfg.Metrics,
	})
	if err != nil {
		return err
	}
	flw, err := replica.NewFollower(replica.FollowerOptions{
		Primary:      primaryURL,
		Store:        store,
		PollInterval: poll,
		Log:          lg,
		Metrics:      cfg.Metrics,
	})
	if err != nil {
		store.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	tailersDone := make(chan struct{})
	go func() {
		defer close(tailersDone)
		flw.Run(ctx)
	}()
	lg.Info("replica mode", "primary", primaryURL, "poll", poll,
		"dir", dir, "promotable", !scratch)
	return serve(lg, addr, server.NewReplica(flw, cfg), func() error {
		cancel()
		<-tailersDone
		lg.Info("replication tailers stopped")
		return store.Close()
	})
}

// serveDebug exposes net/http/pprof on its own listener, so profiling never
// rides the serving port (the default mux would also leak the profiler to
// anyone who can reach the query API).
func serveDebug(lg *olog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	lg.Info("debug/pprof listening", "addr", addr)
	if err := srv.ListenAndServe(); err != nil {
		lg.Error("debug listener failed", "error", err)
	}
}

// serve runs the HTTP server until it fails or a termination signal
// arrives, then shuts it down gracefully and runs cleanup.
// openAccessLog resolves the -access-log destination: "-" means stderr,
// anything else is opened (created) for appending, so restarts extend the
// log instead of truncating it.
func openAccessLog(path string) (*os.File, error) {
	if path == "-" {
		return os.Stderr, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening access log: %w", err)
	}
	return f, nil
}

func serve(lg *olog.Logger, addr string, handler http.Handler, cleanup func() error) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		lg.Info("listening", "addr", addr)
		errc <- srv.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if cerr := cleanup(); cerr != nil {
			lg.Error("cleanup failed", "error", cerr)
		}
		return err
	case s := <-sig:
		lg.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if cerr := cleanup(); err == nil {
			err = cerr
		}
		return err
	}
}

// loadCatalog restores the catalog from cacheDir when possible, otherwise
// builds it from the data directory (and saves to cacheDir when set).
func loadCatalog(dataDir, cacheDir string, opts catalog.Options, logf func(string, ...any)) (*catalog.Catalog, error) {
	if cacheDir != "" {
		if _, err := os.Stat(cacheDir); err == nil {
			begin := time.Now()
			cat, err := catalog.Load(cacheDir, opts)
			if err == nil {
				if err = cacheMismatch(cat, dataDir, cacheDir); err != nil {
					cat.Close() // releases its mappings before the rebuild
				}
			}
			switch {
			case err != nil:
				// The cache is unreadable, or disagrees with the requested
				// flags or the data directory (its collection set, or a data
				// file modified since its collection was cached); honouring
				// them requires a rebuild.
				logf("index cache %s unusable (%v), rebuilding", cacheDir, err)
			case len(cat.Names()) > 0:
				logf("loaded %d collections from index cache %s in %v", len(cat.Names()), cacheDir, time.Since(begin))
				return cat, nil
			}
		}
	}
	begin := time.Now()
	cat, err := catalog.Open(dataDir, opts)
	if err != nil {
		return nil, err
	}
	if len(cat.Names()) == 0 {
		return nil, fmt.Errorf("no collections found in %s", dataDir)
	}
	logf("built %d collections from %s in %v", len(cat.Names()), dataDir, time.Since(begin))
	if cacheDir != "" {
		if err := cat.Save(cacheDir); err != nil {
			logf("saving index cache: %v", err)
		} else {
			logf("saved index cache to %s", cacheDir)
		}
	}
	return cat, nil
}

// cacheMismatch reports why a loaded index cache cannot be served: a
// collection built for a different construction threshold or long-pattern
// cap than requested, a collection set that no longer matches the data
// directory (a file added or removed since the cache was written), or a data
// file whose mtime is not before its collection's manifest in cacheDir (the
// file was edited after, or in the same clock tick as, the cache was saved).
func cacheMismatch(cat *catalog.Catalog, dataDir, cacheDir string) error {
	want := cat.Options()
	for _, info := range cat.Stats() {
		if info.TauMin != want.TauMin {
			return fmt.Errorf("was built with taumin %g (want %g)", info.TauMin, want.TauMin)
		}
		if core.EffectiveLongCap(info.LongCap) != core.EffectiveLongCap(want.LongCap) {
			return fmt.Errorf("was built with longcap %d (want %d)", info.LongCap, want.LongCap)
		}
		if info.Backend != want.Backend {
			return fmt.Errorf("was built with the %s backend (want %s)", info.Backend, want.Backend)
		}
		if info.Backend == core.BackendApprox && info.Epsilon != want.Epsilon {
			return fmt.Errorf("was built with epsilon %g (want %g)", info.Epsilon, want.Epsilon)
		}
	}
	sources, err := catalog.ScanDir(dataDir)
	if err != nil {
		return err
	}
	cached := cat.Names()
	if len(cached) != len(sources) {
		return fmt.Errorf("holds %d collections but %s has %d", len(cached), dataDir, len(sources))
	}
	for _, name := range cached {
		file, ok := sources[name]
		if !ok {
			return fmt.Errorf("holds collection %q which is not in %s", name, dataDir)
		}
		data, err := os.Stat(filepath.Join(dataDir, file))
		if err != nil {
			return err
		}
		man, err := os.Stat(catalog.ManifestPath(cacheDir, name))
		if err != nil {
			return err
		}
		if !data.ModTime().Before(man.ModTime()) {
			return fmt.Errorf("holds collection %q but %s was modified after it was cached", name, file)
		}
	}
	return nil
}
