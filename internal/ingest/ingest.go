// Package ingest is the write path of the serving tier: a mutable layer
// over internal/catalog that accepts document Put and Delete at runtime
// while queries keep flowing.
//
// Each collection is a set of live documents, each indexed whole — by its
// own core.Backend in the collection's configured representation (plain,
// compressed or approx) — at Put time. Mutations are made durable first —
// appended to a per-collection write-ahead log and fsynced before they are
// acknowledged — then published by swapping in a fresh generation-stamped
// View: a catalog.Collection assembled over every live index in document-id
// order, the shape a static catalog over the same documents has. Queries
// enter through the View's Exec — one fan-out, one merge — and run entirely
// against the View they started with, so they observe a consistent
// collection state and never block on writers or compaction.
//
// A collection's index backend spec — the kind and, for the approximate
// ε-index, its error bound — is fixed when the collection is created
// (PutWithSpec/PutWithBackend, the seed catalog's choice, or the store
// default) and recorded in the collection's manifest, so replay after a
// restart rebuilds replayed documents into the same representation with the
// same parameters. Exact backends change memory footprint and query
// latency only and answer bit-identically; an approx collection answers
// every query under its fixed additive error ε — each document is served by
// exactly one ε-index, so the per-document guarantee (no miss above τ,
// nothing at or below τ−ε) survives any mutation history unchanged. Top-k
// is the one operation an approx collection cannot answer; it is rejected
// with the typed core.ErrUnsupportedQuery at dispatch.
//
// A background compactor folds the collection once the number of pending
// documents — put or replaced (delta) plus deleted or replaced (tombstones)
// since the last fold — crosses a threshold: it writes an index file for
// every live document that has none, commits a manifest naming the live set
// (see manifest.go) and truncates the WAL. No index is ever rebuilt and the
// published View does not change shape, so compaction cannot change any
// query answer; it bounds WAL length and replay time. On restart, Open
// re-opens the manifest's index files and replays the WAL; because replay
// re-applies the exact logged operation sequence, a WAL that still contains
// records the manifest already covers (the crash-between-rename-and-truncate
// window) converges to the same state.
//
// Document numbering follows the lexicographic order of external document
// ids, so a collection reached through any mutation history answers
// Search/TopK/Count bit-identically — positions and probabilities — to a
// statically built catalog over the same final document set.
package ingest

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ustring"
)

// Sentinel errors mapped to HTTP statuses by the serving layer.
var (
	// ErrClosed reports a mutation against a closed store.
	ErrClosed = errors.New("ingest: store is closed")
	// ErrUnknownCollection reports a Delete or Compact against a collection
	// the store does not hold.
	ErrUnknownCollection = errors.New("ingest: unknown collection")
	// ErrBadDocID reports an unusable document id.
	ErrBadDocID = errors.New("ingest: bad document id")
	// ErrBadCollectionName reports a collection name unusable on disk.
	ErrBadCollectionName = errors.New("ingest: bad collection name")
	// ErrBackendMismatch reports a backend spec requested for a collection
	// that already uses a different one — a different kind, or the same
	// approx kind with a different ε; the spec is fixed at creation.
	ErrBackendMismatch = errors.New("ingest: collection already uses a different index backend")
	// ErrStaleEpoch reports a local mutation against a store that has been
	// fenced: a replication consumer (or a promoted peer's fencing probe)
	// presented an epoch above this store's, proving a newer primary exists.
	// Accepting the write would fork history, so every Put/Delete/Compact is
	// rejected until the node is restarted as a follower of the new primary.
	ErrStaleEpoch = errors.New("ingest: store is fenced at a stale epoch")
)

// DefaultCompactThreshold is the pending-document count (delta documents
// plus tombstones) at which the background compactor folds a collection.
const DefaultCompactThreshold = 64

// Options configures a store.
type Options struct {
	// Dir is the directory holding per-collection WALs, manifests and index
	// files (required).
	Dir string
	// Catalog supplies the index construction options (threshold, shard
	// count, build worker pool) for delta documents and replayed logs. It
	// must match the options of the catalog passed to Open, or replayed
	// indexes would diverge from seeded ones.
	Catalog catalog.Options
	// CompactThreshold is the pending-document count triggering background
	// compaction; 0 means DefaultCompactThreshold, negative disables
	// automatic compaction (explicit Compact still works).
	CompactThreshold int
	// NoSync disables the fsync after every WAL append. Throughput rises;
	// acknowledged mutations may be lost on a machine crash (never on a
	// process crash).
	NoSync bool
	// Logf receives replay and compaction diagnostics; nil discards them.
	Logf func(string, ...any)
	// Metrics, when non-nil, receives write-path instrumentation: WAL
	// append/fsync latency and bytes, index build latency, compaction
	// durations and mutation counters, plus scrape-time per-collection
	// gauges (WAL size, pending delta/tombstones, epoch).
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	// Run the options through a throwaway catalog so shard/worker defaulting
	// stays in one place.
	o.Catalog = catalog.New(o.Catalog).Options()
	if o.CompactThreshold == 0 {
		o.CompactThreshold = DefaultCompactThreshold
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// PutResult reports where an acknowledged Put landed.
type PutResult struct {
	// Doc is the document's global number in the published view.
	Doc int
	// Docs is the collection's live document count after the Put.
	Docs int
	// Gen is the collection's mutation generation after the Put.
	Gen uint64
	// Replaced reports whether the Put overwrote an existing document.
	Replaced bool
}

// CollectionStatus summarises one live collection for stats reporting.
type CollectionStatus struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	// Epsilon is the approx backend's additive error bound; omitted for
	// exact backends.
	Epsilon     float64 `json:"epsilon,omitempty"`
	Docs        int     `json:"docs"`
	IndexBytes  int     `json:"index_bytes"`
	DeltaDocs   int     `json:"delta_docs"`
	Tombstones  int     `json:"tombstones"`
	Gen         uint64  `json:"gen"`
	Epoch       uint64  `json:"epoch"`
	WALRecords  int     `json:"wal_records"`
	WALBytes    int64   `json:"wal_bytes"`
	Compactions int64   `json:"compactions"`
	// RemappedDocs counts the documents the last Open served straight from
	// their index files under <name>.ix/ (mmap'd under Catalog.MMap)
	// instead of rebuilding — the observable form of the O(1) restart.
	RemappedDocs int `json:"remapped_docs,omitempty"`
}

// FenceInfo records why a store was fenced: which collection's feed saw an
// epoch above the local one, and both epochs. It is surfaced through
// /v1/stats so an operator can tell *which* promotion superseded this node.
type FenceInfo struct {
	Collection string `json:"collection"`
	LocalEpoch uint64 `json:"local_epoch"`
	SeenEpoch  uint64 `json:"seen_epoch"`
}

// Store is the mutable serving layer. All methods are safe for concurrent
// use; mutations to one collection are serialised, queries never block.
type Store struct {
	opts    Options
	metrics storeMetrics
	closed  atomic.Bool

	// fenced flips (once, permanently for the process) when FenceIfStale
	// observes an epoch above a collection's own: a newer primary exists and
	// this store must stop acknowledging writes. Reads keep working — the
	// data served is consistent, merely no longer authoritative.
	fenced       atomic.Bool
	fenceMu      sync.Mutex
	fenceInfo    FenceInfo
	staleRejects atomic.Int64

	mu    sync.RWMutex
	colls map[string]*liveColl

	compactCh chan string
	stopCh    chan struct{}
	wg        sync.WaitGroup

	puts, deletes, compactions atomic.Int64
}

// liveColl is one mutable collection. mu serialises writers (Put, Delete,
// the compactor's swap step); readers go through the atomic view pointer
// and never take it.
type liveColl struct {
	store *Store
	name  string
	spec  core.BackendSpec // index backend, fixed at creation (see the manifest)

	compactMu sync.Mutex // at most one compaction or Install in flight
	// files maps each index with a file under <name>.ix/, committed or not,
	// to its manifest entry; next is the next unused number. compactMu
	// guards both.
	files map[core.Backend]catalog.ManifestDoc
	next  uint64

	mu          sync.Mutex
	man         manifest // the committed manifest, epoch included
	wal         *wal
	live        map[string]core.Backend // every live document, id → index
	folded      map[string]core.Backend // the live set at the last fold (compaction or Open)
	gen         uint64
	compactions int64
	remapped    int // documents this run's Open served from their index files
	view        atomic.Pointer[View]
}

// Open builds a store over the WAL directory, seeding collections from cat
// (which may be nil) and restoring each collection's manifest and WAL.
// Collections present only on disk — created by Puts in a previous run —
// are restored too. After Open returns, every previously acknowledged
// mutation is visible.
func Open(cat *catalog.Catalog, opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("ingest: Options.Dir is required")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	st := &Store{
		opts:      opts,
		metrics:   newStoreMetrics(opts.Metrics),
		colls:     make(map[string]*liveColl),
		compactCh: make(chan string, 64),
		stopCh:    make(chan struct{}),
	}
	st.registerStatusGauges(opts.Metrics)
	names := make(map[string]bool)
	if cat != nil {
		for _, n := range cat.Names() {
			names[n] = true
		}
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	for _, e := range entries {
		for _, ext := range []string{".wal", ".manifest"} {
			if name, ok := strings.CutSuffix(e.Name(), ext); ok && !e.IsDir() {
				names[name] = true
			}
		}
	}
	for name := range names {
		if err := catalog.SafeName(name); err != nil {
			return nil, err
		}
		lc, err := st.openColl(name, cat, nil)
		if err != nil {
			return nil, err
		}
		st.colls[name] = lc
	}
	st.wg.Add(1)
	go st.compactor()
	return st, nil
}

func (st *Store) walPath(name string) string { return filepath.Join(st.opts.Dir, name+".wal") }

// build indexes one document with the static catalog's construction call
// (catalog.Options.Build), which keeps dynamically reached collections
// bit-identical (exact backends) or ε-identical (approx) to static ones.
func (st *Store) build(doc *ustring.String, spec core.BackendSpec) (core.Backend, error) {
	begin := time.Now()
	ix, err := st.opts.Catalog.Build(doc, spec)
	if err == nil {
		st.metrics.buildSeconds.With(spec.Kind).ObserveDuration(time.Since(begin))
	}
	return ix, err
}

// openColl restores one collection: the manifest's index files (if any)
// else the static catalog's documents as seed, then the WAL replayed on top.
// Replay first resolves the final content of every document and only then
// builds indexes, in parallel, so restart cost is proportional to the
// surviving document set, not the log length.
//
// The collection's index backend spec is resolved in precedence order: the
// seed catalog's per-collection choice (when its indexes are actually
// reused), then the manifest from a previous run, then the caller's request
// (a creating PutWithSpec), then the store default. A collection without a
// manifest gets one before its first WAL record, and a changed choice is
// re-recorded, so the next replay verifies against the same choice, ε
// included.
func (st *Store) openColl(name string, cat *catalog.Catalog, backendReq *core.BackendSpec) (*liveColl, error) {
	// Without a request: the store's default kind with its configured ε.
	spec, err := st.opts.Catalog.Spec("")
	if err != nil {
		return nil, err
	}
	if backendReq != nil {
		spec = *backendReq
	}
	lc := &liveColl{store: st, name: name, live: make(map[string]core.Backend), files: make(map[core.Backend]catalog.ManifestDoc)}
	recorded, err := catalog.ReadManifest(catalog.ManifestPath(st.opts.Dir, name), &lc.man)
	found := err == nil
	if errors.Is(err, fs.ErrNotExist) {
		found, recorded, err = st.convertLegacy(lc, spec)
	}
	if err != nil {
		return nil, err
	}
	if found {
		spec = recorded
	} else {
		lc.man.TauMin, lc.man.LongCap = st.opts.Catalog.TauMin, st.opts.Catalog.LongCap
	}
	// Seed: a folded manifest supersedes the static catalog — it is the
	// newer image of the same collection, including any surviving seed
	// documents.
	if cat != nil && !lc.man.Folded {
		if col, ok := cat.Get(name); ok {
			// The seed indexes are reused as-is, so the collection's backend
			// spec is whatever the catalog built — authoritative over a stale
			// manifest from a run with different flags. Seed ids keep the
			// catalog's document order, so an unmutated collection reports
			// the document numbers it did before the store wrapped it.
			spec = col.Spec()
			for i, ix := range col.DocIndexes() {
				lc.live[catalog.DocID(i)] = ix
			}
		}
	}
	lc.spec, lc.man.Spec = spec, spec.Encode()
	// Write only when the choice actually changed: the common restart path
	// then never rewrites the manifest at all.
	if !found || recorded != spec {
		if err := lc.commitLocked(lc.man); err != nil {
			return nil, err
		}
	}
	lc.next = lc.man.Next
	pending := make(map[string]*ustring.String) // content to (re)build
	if err := st.openFolded(lc, pending); err != nil {
		return nil, err
	}
	if lc.remapped > 0 {
		st.opts.Logf("ingest: %s: re-mapped %d index files", name, lc.remapped)
	}
	// A torn tail may have been served to a follower before the crash rolled
	// it back: the epoch is bumped durably before the log is truncated.
	w, recs, err := openWAL(st.walPath(name), !st.opts.NoSync, st.opts.Logf,
		func() error { return lc.setEpochLocked(lc.man.Epoch + 1) })
	if err != nil {
		return nil, err
	}
	// Metric handles are resolved once per collection; nil handles (no
	// registry) make every observation inside append a no-op.
	w.appendHist = st.metrics.walAppendSeconds.With(name)
	w.fsyncHist = st.metrics.walFsyncSeconds.With(name)
	w.appends = st.metrics.walAppends.With(name)
	w.appendedBytes = st.metrics.walAppendedBytes.With(name)
	lc.wal = w
	// Replay: resolve final contents first. An OpPut displaces a re-mapped
	// index and queues the logged content for rebuild; an OpDelete drops it.
	for _, rec := range recs {
		switch rec.Op {
		case OpPut:
			delete(lc.live, rec.ID)
			pending[rec.ID] = rec.Doc
		case OpDelete:
			delete(lc.live, rec.ID)
			delete(pending, rec.ID)
		}
	}
	if len(recs) > 0 {
		st.opts.Logf("ingest: %s: replayed %d wal records", name, len(recs))
	}
	built, err := st.buildDocs(pending, lc.spec)
	if err != nil {
		w.close()
		return nil, fmt.Errorf("ingest: collection %q: %w", name, err)
	}
	maps.Copy(lc.live, built)
	// Count everything as folded so the store starts with no pending work;
	// durability is untouched (the WAL keeps its records until the next
	// fold).
	lc.foldLocked()
	return lc, nil
}

// buildDocs indexes every document of pending with the given backend spec
// on the catalog's worker pool and returns the id → index map.
func (st *Store) buildDocs(pending map[string]*ustring.String, spec core.BackendSpec) (map[string]core.Backend, error) {
	ids := slices.Sorted(maps.Keys(pending))
	ixs := make([]core.Backend, len(ids))
	err := catalog.RunPool(st.opts.Catalog.Workers, len(ids), func(i int) error {
		var err error
		if ixs[i], err = st.build(pending[ids[i]], spec); err != nil {
			return fmt.Errorf("document %q: %w", ids[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	built := make(map[string]core.Backend, len(ids))
	for i, id := range ids {
		built[id] = ixs[i]
	}
	return built, nil
}

// foldLocked records the current live set as folded, zeroing the pending
// work (delta documents and tombstones) the compactor's threshold counts,
// and publishes it.
func (lc *liveColl) foldLocked() {
	lc.folded = maps.Clone(lc.live)
	lc.publishLocked()
}

// publishLocked assembles and swaps in a fresh View of the current state: a
// collection over every live index in id order. Indexes are reused as-is —
// never rebuilt — so the view stays in the collection's configured backend
// (every live index was built with it). It returns the new View.
func (lc *liveColl) publishLocked() *View {
	copts := lc.store.opts.Catalog
	ids := slices.Sorted(maps.Keys(lc.live))
	ixs := make([]core.Backend, len(ids))
	for i, id := range ids {
		ixs[i] = lc.live[id]
	}
	// A folded document no longer live under the same index is a tombstone;
	// every live document not folded under its current index is a delta
	// document. A replaced document is therefore one of each.
	tombstones := 0
	for id, ix := range lc.folded {
		if lc.live[id] != ix {
			tombstones++
		}
	}
	v := &View{
		Collection: catalog.FromIndexes(lc.name, copts.TauMin, copts.LongCap, copts.Shards, lc.spec, ixs),
		gen:        lc.gen,
		ids:        ids,
		deltaDocs:  len(ids) - (len(lc.folded) - tombstones),
		tombstones: tombstones,
	}
	lc.view.Store(v)
	return v
}

// coll returns the named collection, creating it (with a fresh WAL, using
// the requested backend spec; nil means the store default) when create is
// set.
func (st *Store) coll(name string, create bool, backendReq *core.BackendSpec) (*liveColl, error) {
	st.mu.RLock()
	lc, ok := st.colls[name]
	st.mu.RUnlock()
	if ok {
		return lc, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCollection, name)
	}
	if err := catalog.SafeName(name); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCollectionName, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Re-check under the lock: Close (which also takes st.mu) may have run
	// since the fast-path check, and a collection created now would leak its
	// WAL file with nobody left to close it.
	if st.closed.Load() {
		return nil, ErrClosed
	}
	if lc, ok := st.colls[name]; ok {
		return lc, nil
	}
	lc, err := st.openColl(name, nil, backendReq)
	if err != nil {
		return nil, err
	}
	st.colls[name] = lc
	return lc, nil
}

// checkBackend verifies a requested backend spec against the collection's
// fixed one; a nil request always passes. Kind and parameters must both
// match — an approx collection at ε=0.05 conflicts with a request for
// ε=0.1 exactly as it conflicts with a request for plain.
func (lc *liveColl) checkBackend(req *core.BackendSpec) error {
	if req != nil && *req != lc.spec {
		return fmt.Errorf("%w: %q uses %s, requested %s", ErrBackendMismatch, lc.name, lc.spec, *req)
	}
	return nil
}

// validateDocID rejects unusable external document ids.
func validateDocID(id string) error {
	if err := catalog.CheckDocID(id); err != nil {
		return fmt.Errorf("%w: %v", ErrBadDocID, err)
	}
	return nil
}

// Put inserts or replaces one document. The sequence is: validate and build
// the index (an invalid document is rejected before anything is logged),
// append to the WAL (fsynced unless NoSync), then publish a fresh view. A
// nil error means the mutation is durable and visible. A Put that creates
// the collection uses the store's default index backend; PutWithBackend and
// PutWithSpec name one explicitly.
func (st *Store) Put(coll, id string, doc *ustring.String) (PutResult, error) {
	return st.PutWithSpec(coll, id, doc, core.BackendSpec{})
}

// PutWithBackend is Put with an explicit index backend kind for the
// collection, with that kind's store-configured parameters (the approx kind
// picks up the store's ε). Use PutWithSpec to control parameters per call.
func (st *Store) PutWithBackend(coll, id string, doc *ustring.String, backend string) (PutResult, error) {
	var req core.BackendSpec
	if backend != "" {
		var err error
		if req, err = st.opts.Catalog.Spec(backend); err != nil {
			return PutResult{}, err
		}
	}
	return st.PutWithSpec(coll, id, doc, req)
}

// PutWithSpec is Put with an explicit index backend spec for the
// collection; the zero spec means "no request" (the store default on
// creation, no verification on an existing collection). A non-zero spec
// only takes effect when this Put creates the collection; on an existing
// collection a spec that differs from the recorded one — a different kind,
// or a different ε — fails with ErrBackendMismatch: the spec is fixed at
// creation, so a silent switch would split the collection across
// representations or error bounds.
func (st *Store) PutWithSpec(coll, id string, doc *ustring.String, req core.BackendSpec) (PutResult, error) {
	if st.closed.Load() {
		return PutResult{}, ErrClosed
	}
	if err := st.checkFenced(); err != nil {
		return PutResult{}, err
	}
	if err := validateDocID(id); err != nil {
		return PutResult{}, err
	}
	if doc == nil {
		return PutResult{}, errors.New("ingest: nil document")
	}
	var reqSpec *core.BackendSpec
	if req != (core.BackendSpec{}) {
		// Validate the request; an approx one with ε 0 picks up the store's
		// configured ε.
		resolved, err := core.NewBackendSpec(req.Kind, req.Epsilon)
		if req.Kind == core.BackendApprox && req.Epsilon == 0 {
			resolved, err = st.opts.Catalog.Spec(req.Kind)
		}
		if err != nil {
			return PutResult{}, err
		}
		reqSpec = &resolved
	}
	lc, err := st.coll(coll, true, reqSpec)
	if err != nil {
		return PutResult{}, err
	}
	if err := lc.checkBackend(reqSpec); err != nil {
		return PutResult{}, err
	}
	// Build outside the writer lock: construction is the expensive step and
	// must not serialise against other collections' queries or writers.
	ix, err := st.build(doc, lc.spec)
	if err != nil {
		return PutResult{}, err
	}
	lc.mu.Lock()
	// Re-check under the writer lock: a fencing probe that landed while the
	// index was being built must win before anything reaches the log.
	if err := st.checkFenced(); err != nil {
		lc.mu.Unlock()
		return PutResult{}, err
	}
	if err := lc.wal.append(WALRecord{Op: OpPut, ID: id, Doc: doc}); err != nil {
		lc.mu.Unlock()
		return PutResult{}, err
	}
	_, replaced := lc.live[id]
	lc.live[id] = ix
	lc.gen++
	v := lc.publishLocked()
	lc.mu.Unlock()
	st.puts.Add(1)
	st.metrics.puts.Inc()
	st.maybeCompact(coll, v)
	docNo, _ := v.DocNumber(id)
	return PutResult{Doc: docNo, Docs: v.Docs(), Gen: v.Gen(), Replaced: replaced}, nil
}

// Delete removes one document, reporting whether it existed. Deleting from
// an unknown collection returns ErrUnknownCollection.
func (st *Store) Delete(coll, id string) (bool, error) {
	if st.closed.Load() {
		return false, ErrClosed
	}
	if err := st.checkFenced(); err != nil {
		return false, err
	}
	lc, err := st.coll(coll, false, nil)
	if err != nil {
		return false, err
	}
	lc.mu.Lock()
	if err := st.checkFenced(); err != nil {
		lc.mu.Unlock()
		return false, err
	}
	if _, ok := lc.live[id]; !ok {
		lc.mu.Unlock()
		return false, nil
	}
	if err := lc.wal.append(WALRecord{Op: OpDelete, ID: id}); err != nil {
		lc.mu.Unlock()
		return false, err
	}
	delete(lc.live, id)
	lc.gen++
	v := lc.publishLocked()
	lc.mu.Unlock()
	st.deletes.Add(1)
	st.metrics.deletes.Inc()
	st.maybeCompact(coll, v)
	return true, nil
}

// maybeCompact nudges the background compactor when a collection's pending
// work crossed the threshold. Dropping the nudge is fine — the next
// mutation re-sends it.
func (st *Store) maybeCompact(name string, v *View) {
	if st.opts.CompactThreshold < 0 || v.DeltaDocs()+v.Tombstones() < st.opts.CompactThreshold {
		return
	}
	select {
	case st.compactCh <- name:
	default:
	}
}

// compactor is the background folding loop.
func (st *Store) compactor() {
	defer st.wg.Done()
	for {
		select {
		case <-st.stopCh:
			return
		case name := <-st.compactCh:
			if _, err := st.Compact(name); err != nil {
				st.opts.Logf("ingest: background compaction of %q: %v", name, err)
			}
		}
	}
}

// errCompactRaced aborts a fold whose live set went stale while its index
// files were being written.
var errCompactRaced = errors.New("ingest: compaction raced a writer")

// Compact folds the named collection: it commits the live document set to
// the manifest, truncates the WAL and zeroes the pending delta documents and
// tombstones. It reports false when there was nothing to fold. The fold is
// optimistic: index files are written outside the writer lock, and the fold
// retried if a mutation lands meanwhile — reusing the files already written
// — so queries are never blocked, and writers only for the commit.
func (st *Store) Compact(name string) (bool, error) {
	if st.closed.Load() {
		return false, ErrClosed
	}
	if err := st.checkFenced(); err != nil {
		return false, err
	}
	lc, err := st.coll(name, false, nil)
	if err != nil {
		return false, err
	}
	lc.compactMu.Lock()
	defer lc.compactMu.Unlock()
	begin := time.Now()
	for attempt := 0; attempt < 16; attempt++ {
		did, err := st.compactOnce(lc)
		if !errors.Is(err, errCompactRaced) {
			if did {
				st.compactions.Add(1)
				st.metrics.compactions.With(name).Inc()
				st.metrics.compactSeconds.With(name).ObserveDuration(time.Since(begin))
			}
			return did, err
		}
	}
	return false, fmt.Errorf("ingest: collection %q: compaction kept racing writers", name)
}

func (st *Store) compactOnce(lc *liveColl) (bool, error) {
	lc.mu.Lock()
	v := lc.view.Load()
	// A freshly opened store counts replayed records as folded, so the
	// pending work can be zero while the WAL still holds records; compacting
	// then means committing and truncating so the log cannot grow across
	// restarts. A manifest not yet folded leaves seed documents outside it,
	// so the first fold is due even then. With all three settled there is
	// truly nothing to do.
	if v.DeltaDocs()+v.Tombstones() == 0 && lc.wal.records == 0 && lc.man.Folded {
		lc.mu.Unlock()
		return false, nil
	}
	gen := lc.gen
	live := maps.Clone(lc.live)
	lc.mu.Unlock()

	// Only live indexes without a file get one, so a fold writes O(delta);
	// a retry after errCompactRaced reuses the files already written.
	docs, err := lc.writeFiles(live)
	if err != nil {
		return false, err
	}

	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.gen != gen {
		return false, errCompactRaced
	}
	// The manifest rename is the commit point. It carries the bumped epoch,
	// so the epoch is durable before the truncate touches the log; a crash
	// between the two leaves manifest + full WAL, which replay converges.
	m := lc.man
	m.TauMin, m.LongCap = st.opts.Catalog.TauMin, st.opts.Catalog.LongCap
	m.Epoch, m.Next, m.Folded, m.Docs = m.Epoch+1, lc.next, true, docs
	if err := lc.foldToLocked(m, live); err != nil {
		return false, err
	}
	lc.compactions++
	st.opts.Logf("ingest: %s: compacted %d documents (gen %d)", lc.name, len(docs), lc.gen)
	return true, nil
}

// checkFenced rejects local mutations on a fenced store with the typed
// sentinel, counting the rejection so the shed rate is observable.
func (st *Store) checkFenced() error {
	fenced, info := st.Fenced()
	if !fenced {
		return nil
	}
	st.staleRejects.Add(1)
	st.metrics.staleRejects.Inc()
	return fmt.Errorf("%w: collection %q is at epoch %d but a consumer presented epoch %d "+
		"(a newer primary exists; restart this node as its follower)",
		ErrStaleEpoch, info.Collection, info.LocalEpoch, info.SeenEpoch)
}

// Fenced reports whether the store has been fenced, and why.
func (st *Store) Fenced() (bool, FenceInfo) {
	if !st.fenced.Load() {
		return false, FenceInfo{}
	}
	st.fenceMu.Lock()
	info := st.fenceInfo
	st.fenceMu.Unlock()
	return true, info
}

// StaleEpochRejections returns how many mutations were rejected because the
// store is fenced.
func (st *Store) StaleEpochRejections() int64 { return st.staleRejects.Load() }

// FenceIfStale compares a replication consumer's epoch against the named
// collection's own. A consumer at a HIGHER epoch can only exist if a peer
// promoted itself (epochs only move forward, durably, one node at a time per
// lineage) — so this store has been superseded and fences itself: from now
// on every local mutation fails with ErrStaleEpoch. It returns true when the
// presented epoch is stale-making (above the local one), whether or not the
// store was already fenced; an unknown collection never fences.
func (st *Store) FenceIfStale(coll string, seen uint64) bool {
	lc, err := st.coll(coll, false, nil)
	if err != nil {
		return false
	}
	lc.mu.Lock()
	cur := lc.man.Epoch
	lc.mu.Unlock()
	if seen <= cur {
		return false
	}
	st.fenceMu.Lock()
	if !st.fenced.Load() {
		st.fenceInfo = FenceInfo{Collection: coll, LocalEpoch: cur, SeenEpoch: seen}
		st.fenced.Store(true)
		st.opts.Logf("ingest: FENCED: collection %q is at epoch %d but a consumer presented epoch %d; "+
			"rejecting all further local mutations", coll, cur, seen)
	}
	st.fenceMu.Unlock()
	return true
}

// Takeover prepares a collection for primary duty after a promotion. A
// follower applies replicated records without logging them (durability was
// the old primary's WAL), so first the live set is folded into durable
// index files via Compact; then the collection durably adopts an epoch of at
// least minEpoch — strictly above the demoted primary's — so the old
// stream's (epoch, offset) pairs can never alias into this node's log, and
// so a fencing probe carrying the adopted epoch provably supersedes the old
// primary. The collection is created empty if this follower never held it.
// It returns the adopted epoch.
func (st *Store) Takeover(coll string, minEpoch uint64) (uint64, error) {
	if st.closed.Load() {
		return 0, ErrClosed
	}
	if err := st.checkFenced(); err != nil {
		return 0, err
	}
	lc, err := st.coll(coll, true, nil)
	if err != nil {
		return 0, err
	}
	if _, err := st.Compact(coll); err != nil {
		return 0, err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if err := lc.setEpochLocked(minEpoch); err != nil {
		return 0, err
	}
	return lc.man.Epoch, nil
}

// Get returns the named collection's current snapshot.
func (st *Store) Get(name string) (*View, bool) {
	st.mu.RLock()
	lc, ok := st.colls[name]
	st.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return lc.view.Load(), true
}

// Names returns the collection names in sorted order.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return slices.Sorted(maps.Keys(st.colls))
}

// Stats returns per-collection summaries in name order, mirroring
// catalog.Stats for the serving layer.
func (st *Store) Stats() []catalog.Info {
	infos := make([]catalog.Info, 0)
	for _, name := range st.Names() {
		if v, ok := st.Get(name); ok {
			infos = append(infos, v.Info())
		}
	}
	return infos
}

// Status reports ingest-specific counters per collection, in name order.
func (st *Store) Status() []CollectionStatus {
	out := make([]CollectionStatus, 0)
	for _, name := range st.Names() {
		lc, err := st.coll(name, false, nil)
		if err != nil {
			continue
		}
		lc.mu.Lock()
		v := lc.view.Load()
		cs := CollectionStatus{
			Name:         name,
			Backend:      v.Backend(),
			Epsilon:      v.Epsilon(),
			Docs:         v.Docs(),
			IndexBytes:   v.IndexBytes(),
			DeltaDocs:    v.DeltaDocs(),
			Tombstones:   v.Tombstones(),
			Gen:          lc.gen,
			Epoch:        lc.man.Epoch,
			WALRecords:   lc.wal.records,
			WALBytes:     lc.wal.bytes,
			Compactions:  lc.compactions,
			RemappedDocs: lc.remapped,
		}
		lc.mu.Unlock()
		out = append(out, cs)
	}
	return out
}

// Counters returns the store-wide mutation totals.
func (st *Store) Counters() (puts, deletes, compactions int64) {
	return st.puts.Load(), st.deletes.Load(), st.compactions.Load()
}

// Options returns the store's effective (defaulted) configuration.
func (st *Store) Options() Options { return st.opts }

// Close stops the background compactor and flushes and closes every WAL.
// With NoSync set this is the moment buffered mutations reach the disk, so
// a graceful shutdown loses nothing either way. Queries against already
// obtained Views keep working; mutations fail with ErrClosed.
func (st *Store) Close() error {
	if st.closed.Swap(true) {
		return nil
	}
	close(st.stopCh)
	st.wg.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, lc := range st.colls {
		lc.mu.Lock()
		if err := lc.wal.close(); err != nil && first == nil {
			first = err
		}
		lc.mu.Unlock()
	}
	return first
}
