// Package catalog manages a sharded, multi-document collection of uncertain
// strings behind the single-string indexes of internal/core — the
// serving-tier counterpart of the paper's single-document library.
//
// A Catalog holds named Collections. Each Collection is a set of uncertain
// string documents, every document indexed whole by its own core.Backend —
// the plain suffix-array index or the compressed FM-index representation,
// chosen per collection at creation (Options.Backend, AddWithBackend) — and
// assigned round-robin to one of a fixed number of shards. A query is a
// core.Query value and Collection.Exec is its one entry point: validate once,
// fan out across shards concurrently, merge the per-shard results by
// operation (Search, TopK and Count are one-line wrappers over it):
//
//   - core.OpSearch: threshold search (Problem 1) over every document,
//     merged in (document, position) order;
//   - core.OpTopK: the globally most probable occurrences, merged from the
//     per-shard candidates through a bounded min-heap;
//   - core.OpCount: the total number of qualifying occurrences.
//
// Because a document is always indexed as one unit, the shard count affects
// only the fan-out: results are bit-identical for every shard count,
// including the reported probabilities (see the equivalence test). The same
// holds for the backend choice — both representations compute probabilities
// through identical arithmetic, so a mixed-backend catalog answers exactly
// like an all-plain one, trading only memory for query latency.
//
// Index construction is the expensive step, so builds run on a bounded
// worker pool, and a built catalog can be written to a cache directory with
// Save and reloaded with Load, in the one on-disk collection layout the
// ingest store shares (see Manifest).
package catalog

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ustring"
)

// collectionID stamps every built or loaded collection with a
// process-unique id, so result caches can key on the collection *instance*
// and never serve results computed against a replaced collection.
var collectionID atomic.Uint64

// Options configures catalog construction.
type Options struct {
	// TauMin is the construction threshold of every document index; queries
	// support any tau ≥ TauMin. Defaults to 0.1.
	TauMin float64
	// Shards is the number of query fan-out shards per collection. Documents
	// are assigned round-robin. Defaults to GOMAXPROCS, capped at 16.
	Shards int
	// Workers bounds the worker pool running per-document index builds.
	// Defaults to GOMAXPROCS.
	Workers int
	// LongCap is passed through to core.WithLongCap when positive.
	LongCap int
	// Backend selects the default index backend for new collections
	// (core.BackendPlain, core.BackendCompressed or core.BackendApprox;
	// empty means plain). Individual collections may override it via
	// AddWithBackend/AddWithSpec. Exact backends trade memory against
	// latency only; the approx backend additionally trades exactness for
	// speed (additive error Epsilon).
	Backend string
	// Epsilon is the additive error bound used when Backend (or an
	// AddWithBackend override) selects the approx backend; 0 means
	// core.DefaultEpsilon. Ignored by exact backends.
	Epsilon float64
	// MMap makes cache loads map format-4 index files instead of reading
	// them onto the heap: opening is O(regions) and resident memory stays
	// near zero until queries fault pages in. Non-envelope (gob) cache
	// files fall back to the decode path regardless.
	MMap bool
	// HotCollections bounds how many collections stay resident at once
	// (0 = unbounded). When the bound is exceeded the least recently used
	// collection is evicted — its mappings released after EvictGrace — and
	// transparently faulted back in from the cache directory on its next
	// Get. Only effective once the catalog has a cache directory (Load or
	// Save); collections not present in the cache are never evicted.
	HotCollections int
	// EvictGrace is how long an evicted collection's backends stay valid
	// after eviction, covering queries already holding the collection.
	// Defaults to 5s.
	EvictGrace time.Duration
	// Metrics, when set, receives the catalog's zero-copy counters:
	// ustridx_decode_skips_total and ustridx_collection_faults_total.
	Metrics *obs.Registry
}

// Spec resolves a per-collection backend kind override (empty = the catalog
// default) into a validated core.BackendSpec carrying the catalog's ε. The
// ingest layer and the daemon route their backend choices through it so
// every layer derives the identical spec from the same options.
func (o Options) Spec(kind string) (core.BackendSpec, error) {
	if kind == "" {
		kind = o.Backend
	}
	eps := 0.0
	if kind == core.BackendApprox {
		eps = o.Epsilon
	}
	return core.NewBackendSpec(kind, eps)
}

func (o Options) withDefaults() Options {
	if o.TauMin <= 0 {
		o.TauMin = 0.1
	}
	if o.Backend == "" {
		o.Backend = core.BackendPlain
	}
	if o.Shards <= 0 {
		o.Shards = min(runtime.GOMAXPROCS(0), 16)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.EvictGrace <= 0 {
		o.EvictGrace = 5 * time.Second
	}
	return o
}

// DocHit is one occurrence of a pattern inside a collection. The JSON tags
// are the server's wire shape: hits travel from Exec to the response encoder
// (and into the result cache) without a copy.
type DocHit struct {
	// Doc is the document's index within the collection.
	Doc int `json:"doc"`
	// Pos is the starting position within the document.
	Pos int `json:"pos"`
	// Prob is the occurrence probability.
	Prob float64 `json:"prob"`
}

// docIndex pairs a document id with its index backend.
type docIndex struct {
	doc int
	ix  core.Backend
}

// Collection is one named, sharded document set. It is immutable after
// construction and safe for concurrent use.
type Collection struct {
	id         uint64
	name       string
	tauMin     float64
	longCap    int
	spec       core.BackendSpec
	shards     [][]docIndex
	docs       int
	positions  int
	indexBytes int
	// mappedBytes is the summed mmap'd storage behind the collection's
	// document indexes (0 when heap-loaded).
	mappedBytes int64
	// lastUsed orders collections for LRU eviction; stamped from the
	// catalog's access sequence on every Get.
	lastUsed atomic.Int64
}

// Catalog is a set of named collections. All methods are safe for concurrent
// use.
type Catalog struct {
	opts Options

	// cacheDir remembers where the catalog was loaded from (or saved to):
	// the directory evicted collections are faulted back in from.
	cacheDir string

	// seq stamps collection accesses for LRU ordering; decodeSkips and
	// faults are the /v1/stats zero-copy counters.
	seq         atomic.Int64
	decodeSkips atomic.Int64
	faults      atomic.Int64

	skipsCounter  *obs.Counter
	faultsCounter *obs.Counter

	// faultMu serialises fault-ins so concurrent Gets of one evicted
	// collection load it once.
	faultMu sync.Mutex

	mu    sync.RWMutex
	colls map[string]*Collection
	// cold remembers evicted collections by their last Info snapshot, so
	// listings and stats still cover them while they are unmapped.
	cold map[string]Info
	// saved maps a name to the id of the collection cacheDir holds under
	// it, as last saved there or loaded from it. Only a resident collection
	// whose id matches can be evicted: one replaced since would fault back
	// in as the stale copy.
	saved map[string]uint64
}

// New returns an empty catalog.
func New(opts Options) *Catalog {
	c := &Catalog{
		opts:  opts.withDefaults(),
		colls: make(map[string]*Collection),
		cold:  make(map[string]Info),
		saved: make(map[string]uint64),
	}
	if r := c.opts.Metrics; r != nil {
		c.skipsCounter = r.Counter("ustridx_decode_skips_total",
			"Cache loads that skipped the decode/rebuild path because a format-4 envelope validated.")
		c.faultsCounter = r.Counter("ustridx_collection_faults_total",
			"Evicted collections faulted back in from the cache directory on first query.")
	}
	return c
}

// Options returns the catalog's effective (defaulted) options.
func (c *Catalog) Options() Options { return c.opts }

// ScanDir lists the collection files of a data directory as a map from
// collection name (base name without extension) to file name. Hidden files
// and subdirectories are skipped; two files mapping to the same name is an
// error.
func ScanDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	sources := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		if prev, dup := sources[name]; dup {
			return nil, fmt.Errorf("catalog: files %s and %s both map to collection %q", prev, e.Name(), name)
		}
		sources[name] = e.Name()
	}
	return sources, nil
}

// Open builds a catalog from a directory of collection files: every
// non-hidden regular file is parsed as a '%'-separated collection
// (ustring.UnmarshalCollection) and added under its base name without
// extension.
func Open(dir string, opts Options) (*Catalog, error) {
	sources, err := ScanDir(dir)
	if err != nil {
		return nil, err
	}
	c := New(opts)
	for name, file := range sources {
		f, err := os.Open(filepath.Join(dir, file))
		if err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		docs, err := ustring.UnmarshalCollection(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("catalog: %s: %w", file, err)
		}
		if _, err := c.Add(name, docs); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Add builds indexes for docs on the catalog's worker pool and registers the
// collection under name, replacing any previous collection of that name. The
// catalog's default backend is used; AddWithBackend/AddWithSpec override it.
func (c *Catalog) Add(name string, docs []*ustring.String) (*Collection, error) {
	return c.AddWithBackend(name, docs, c.opts.Backend)
}

// AddWithBackend is Add with an explicit index backend kind for this
// collection (empty means the catalog default; the approx kind picks up the
// catalog's Epsilon). Collections of different backends coexist in one
// catalog; exact backends answer queries bit-identically, the approx backend
// under its declared ε.
func (c *Catalog) AddWithBackend(name string, docs []*ustring.String, backend string) (*Collection, error) {
	spec, err := c.opts.Spec(backend)
	if err != nil {
		return nil, fmt.Errorf("catalog: collection %q: %w", name, err)
	}
	return c.AddWithSpec(name, docs, spec)
}

// AddWithSpec is Add with a full backend spec (kind plus construction
// parameters) for this collection. The zero spec means the plain backend.
func (c *Catalog) AddWithSpec(name string, docs []*ustring.String, spec core.BackendSpec) (*Collection, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty collection name")
	}
	spec, err := core.NewBackendSpec(spec.Kind, spec.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("catalog: collection %q: %w", name, err)
	}
	ixs, err := c.buildAll(docs, spec)
	if err != nil {
		return nil, fmt.Errorf("catalog: collection %q: %w", name, err)
	}
	return c.register(name, c.opts.TauMin, c.opts.LongCap, spec, ixs, false), nil
}

// RunPool runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the first error by index. Builds and loads of a catalog, and
// the ingest store's, run on it.
func RunPool(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, max(workers, 1))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Build indexes one document under spec with the options' threshold and
// long cap — the one construction call of catalogs and ingest stores, which
// keeps collections reached through any mutation history identical to
// statically built ones.
func (o Options) Build(doc *ustring.String, spec core.BackendSpec) (core.Backend, error) {
	var opts []core.Option
	if o.LongCap > 0 {
		opts = append(opts, core.WithLongCap(o.LongCap))
	}
	return spec.Build(doc, o.TauMin, opts...)
}

// buildAll builds one index per document on the worker pool, all with the
// same backend spec.
func (c *Catalog) buildAll(docs []*ustring.String, spec core.BackendSpec) ([]core.Backend, error) {
	ixs := make([]core.Backend, len(docs))
	err := RunPool(c.opts.Workers, len(docs), func(i int) error {
		var err error
		if ixs[i], err = c.opts.Build(docs[i], spec); err != nil {
			return fmt.Errorf("document %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ixs, nil
}

// register assembles built or loaded indexes into a collection over the
// catalog's shards and adds it under name, replacing any previous one;
// cached says the indexes were loaded from the cache directory.
func (c *Catalog) register(name string, tauMin float64, longCap int, spec core.BackendSpec, ixs []core.Backend, cached bool) *Collection {
	col := FromIndexes(name, tauMin, longCap, c.opts.Shards, spec, ixs)
	col.lastUsed.Store(c.seq.Add(1))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.colls[name] = col
	delete(c.cold, name)
	if cached {
		c.saved[name] = col.id
	}
	c.evictLocked()
	return col
}

// FromIndexes assembles a collection directly from already-built
// per-document indexes, distributing them round-robin over shards (shards
// < 1 is treated as 1). Index i becomes document i; spec labels the
// collection's configured backend (the zero spec means plain). Assembly
// never rebuilds an index, so a collection re-assembled from the same
// indexes answers queries identically — the property the ingest layer
// relies on when it publishes every snapshot of a live collection as one
// collection over its live indexes, in document-id order.
func FromIndexes(name string, tauMin float64, longCap, shards int, spec core.BackendSpec, ixs []core.Backend) *Collection {
	shards = max(shards, 1)
	if spec.Kind == "" {
		spec.Kind = core.BackendPlain
	}
	col := &Collection{
		id:      collectionID.Add(1),
		name:    name,
		tauMin:  tauMin,
		longCap: longCap,
		spec:    spec,
		shards:  make([][]docIndex, shards),
		docs:    len(ixs),
	}
	for i, ix := range ixs {
		s := i % len(col.shards)
		col.shards[s] = append(col.shards[s], docIndex{doc: i, ix: ix})
		// SourceLen, not Source().Len(): the latter would materialise every
		// lazily-loaded (mmap'd) document source and defeat the O(1) start.
		col.positions += core.SourceLen(ix)
		col.indexBytes += ix.Bytes()
		col.mappedBytes += core.BackendMappedBytes(ix)
	}
	return col
}

// Get returns the named collection, stamping it most recently used. A
// collection evicted under the HotCollections bound is transparently
// faulted back in from the cache directory (counted in
// ustridx_collection_faults_total); callers never observe eviction beyond
// the first query's re-open latency.
func (c *Catalog) Get(name string) (*Collection, bool) {
	c.mu.RLock()
	col, ok := c.colls[name]
	_, isCold := c.cold[name]
	dir := c.cacheDir
	c.mu.RUnlock()
	if ok {
		col.lastUsed.Store(c.seq.Add(1))
		return col, true
	}
	if !isCold || dir == "" {
		return nil, false
	}
	// Fault the evicted collection back in, once: concurrent Gets of the
	// same (or another) cold collection serialise here rather than all
	// re-mapping it.
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	c.mu.RLock()
	col, ok = c.colls[name]
	c.mu.RUnlock()
	if ok {
		col.lastUsed.Store(c.seq.Add(1))
		return col, true
	}
	col, err := c.loadCollection(dir, name)
	if err != nil {
		return nil, false
	}
	c.faults.Add(1)
	c.faultsCounter.Inc()
	return col, true
}

// evictLocked enforces the HotCollections bound: while too many collections
// are resident, the least recently used one that can be restored from the
// cache directory moves to the cold set and its backends are closed after
// EvictGrace (covering queries that already hold the collection — they keep
// a *Collection reference, which stays fully usable until the grace timer
// releases the mappings). The caller holds c.mu.
func (c *Catalog) evictLocked() {
	limit := c.opts.HotCollections
	if limit <= 0 || c.cacheDir == "" || len(c.colls) <= limit {
		return
	}
	type cand struct {
		name string
		used int64
	}
	cands := make([]cand, 0, len(c.colls))
	for name, col := range c.colls {
		// Only a collection the cache holds as it is resident can fault back
		// in; never evict one that would be lost or come back stale.
		if c.saved[name] != col.id {
			continue
		}
		if _, err := os.Stat(ManifestPath(c.cacheDir, name)); err != nil {
			continue
		}
		cands = append(cands, cand{name, col.lastUsed.Load()})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].used < cands[b].used })
	for _, v := range cands {
		if len(c.colls) <= limit {
			break
		}
		col := c.colls[v.name]
		delete(c.colls, v.name)
		c.cold[v.name] = col.Info()
		backends := col.DocIndexes()
		time.AfterFunc(c.opts.EvictGrace, func() {
			for _, b := range backends {
				_ = core.CloseBackend(b)
			}
		})
	}
}

// Close releases the backends — mappings included — of every resident
// collection and empties the catalog; collections already handed out must
// not be queried afterwards. Evicted collections release theirs on their
// grace timers.
func (c *Catalog) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, col := range c.colls {
		closeAll(col.DocIndexes())
	}
	c.colls, c.cold = map[string]*Collection{}, map[string]Info{}
}

// Names returns the collection names in sorted order, including collections
// currently evicted under the HotCollections bound.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := slices.AppendSeq(slices.Collect(maps.Keys(c.colls)), maps.Keys(c.cold))
	slices.Sort(names)
	return names
}

// Info summarises one collection for stats reporting.
type Info struct {
	Name      string
	Docs      int
	Positions int
	Shards    int
	TauMin    float64
	// LongCap is the long-pattern blocking cap the collection was built
	// with (0 = library default); serving layers compare it against their
	// requested options to detect stale caches.
	LongCap int
	// Backend names the collection's index backend kind (core.BackendPlain,
	// core.BackendCompressed or core.BackendApprox).
	Backend string
	// Epsilon is the approx backend's additive error bound; 0 for exact
	// backends.
	Epsilon float64
	// IndexBytes is the summed resident footprint of the collection's
	// per-document indexes — the number that makes the compressed backend's
	// savings observable per collection.
	IndexBytes int
	// MappedBytes is the mmap'd storage behind the collection's document
	// indexes; 0 when heap-loaded. Mapped bytes are file-backed and
	// reclaimable, so they do not count toward process heap.
	MappedBytes int64
	// Cold marks a collection currently evicted under the HotCollections
	// bound; its next Get faults it back in from the cache directory.
	Cold bool
}

// Info summarises the collection for stats reporting.
func (col *Collection) Info() Info {
	return Info{
		Name:        col.name,
		Docs:        col.docs,
		Positions:   col.positions,
		Shards:      len(col.shards),
		TauMin:      col.tauMin,
		LongCap:     col.longCap,
		Backend:     col.spec.Kind,
		Epsilon:     col.spec.Epsilon,
		IndexBytes:  col.indexBytes,
		MappedBytes: col.mappedBytes,
	}
}

// Stats returns per-collection summaries in name order. Evicted (cold)
// collections report the snapshot taken at eviction with Cold set.
func (c *Catalog) Stats() []Info {
	c.mu.RLock()
	defer c.mu.RUnlock()
	infos := make([]Info, 0, len(c.colls)+len(c.cold))
	for _, col := range c.colls {
		infos = append(infos, col.Info())
	}
	for _, info := range c.cold {
		info.Cold = true
		info.MappedBytes = 0 // mappings were released at eviction
		infos = append(infos, info)
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	return infos
}

// MappedStats summarises the catalog's zero-copy serving state for the
// daemon's /v1/stats endpoint.
type MappedStats struct {
	// MappedBytes sums the mmap'd storage behind all resident collections.
	MappedBytes int64 `json:"mapped_bytes"`
	// DecodeSkips counts cache loads that skipped the decode/rebuild path
	// because a format-4 envelope validated in place.
	DecodeSkips int64 `json:"decode_skips"`
	// CollectionFaults counts evicted collections faulted back in on Get.
	CollectionFaults int64 `json:"collection_faults"`
	// HotCollections echoes the configured residency bound (0 = unbounded).
	HotCollections int `json:"hot_collections"`
	// ColdCollections is how many collections are currently evicted.
	ColdCollections int `json:"cold_collections"`
}

// MappedStats reports the catalog's zero-copy counters.
func (c *Catalog) MappedStats() MappedStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var mb int64
	for _, col := range c.colls {
		mb += col.mappedBytes
	}
	return MappedStats{
		MappedBytes:      mb,
		DecodeSkips:      c.decodeSkips.Load(),
		CollectionFaults: c.faults.Load(),
		HotCollections:   c.opts.HotCollections,
		ColdCollections:  len(c.cold),
	}
}

// Name returns the collection's name.
func (col *Collection) Name() string { return col.name }

// ID returns a process-unique id for this collection instance. Replacing a
// collection via Add yields a new id, which result caches fold into their
// keys so stale entries can never match.
func (col *Collection) ID() uint64 { return col.id }

// Docs returns the number of documents.
func (col *Collection) Docs() int { return col.docs }

// Positions returns the total number of positions across documents.
func (col *Collection) Positions() int { return col.positions }

// TauMin returns the construction threshold shared by every document index.
func (col *Collection) TauMin() float64 { return col.tauMin }

// Shards returns the fan-out shard count.
func (col *Collection) Shards() int { return len(col.shards) }

// Backend returns the collection's index backend kind.
func (col *Collection) Backend() string { return col.spec.Kind }

// Epsilon returns the approx backend's additive error bound (0 for exact
// backends).
func (col *Collection) Epsilon() float64 { return col.spec.Epsilon }

// Spec returns the collection's full backend spec (kind plus construction
// parameters) — the value serving layers consult for capabilities and fold
// into result-cache keys.
func (col *Collection) Spec() core.BackendSpec { return col.spec }

// IndexBytes returns the summed resident footprint of the collection's
// per-document indexes.
func (col *Collection) IndexBytes() int { return col.indexBytes }

// MappedBytes returns the mmap'd storage behind the collection's document
// indexes (0 when heap-loaded).
func (col *Collection) MappedBytes() int64 { return col.mappedBytes }

// Estimate prices a query of patternLen bytes against this collection from
// its already-held statistics (documents, positions, shards, backend kind,
// long-pattern cap) — no index structure is touched. Admission tiers call
// it before deciding to execute; see core.EstimateQuery for the model.
func (col *Collection) Estimate(patternLen int) core.QueryEstimate {
	return core.EstimateQuery(col.spec, col.docs, col.positions, len(col.shards), col.longCap, patternLen)
}

// DocIndexes returns the per-document indexes in document order. The indexes
// are shared, not copied — they are immutable, so callers (the ingest layer
// seeding its live document set) may hand them to FromIndexes freely.
func (col *Collection) DocIndexes() []core.Backend {
	out := make([]core.Backend, col.docs)
	for _, shard := range col.shards {
		for _, di := range shard {
			out[di.doc] = di.ix
		}
	}
	return out
}
