// Package uncertain is the public API of the uncertain-string indexing
// library, a Go reproduction of "Probabilistic Threshold Indexing for
// Uncertain Strings" (Thankachan, Patil, Shah, Biswas; EDBT 2016).
//
// An uncertain string assigns every position a probability distribution over
// characters (the character-level model). The library answers two query
// problems for a deterministic pattern p and probability threshold τ:
//
//   - Substring searching (Index): report every position of one uncertain
//     string where p occurs with probability greater than τ.
//   - String listing (CollectionIndex): report every string of a collection
//     that contains p with probability greater than τ.
//
// Both indexes are built for a construction-time threshold τmin and answer
// queries for any τ ≥ τmin in near-optimal time: O(m + occ) for patterns up
// to log N long, O(m·occ) beyond. An approximate variant (ApproxIndex)
// answers any pattern length in optimal time at the cost of an additive
// error ε in the reported threshold.
//
// # Quick start
//
//	s := uncertain.Must(uncertain.Parse(strings.NewReader(
//		"A:0.5 C:0.5\nT:1\nG:0.9 A:0.1\n")))
//	ix, err := uncertain.NewIndex(s, 0.1)
//	if err != nil { ... }
//	positions, err := ix.Search([]byte("AT"), 0.3)
//
// # Concurrency
//
// Every index type (Index, CollectionIndex, SpecialIndex, ApproxIndex) is
// immutable after construction: all query methods are safe for concurrent
// use by any number of goroutines with no external locking. The serving
// tier (Catalog, cmd/ustridxd) relies on this guarantee to fan queries out
// across shards.
//
// # Serving
//
// Catalog manages many documents behind one query surface: documents are
// spread over shards, each indexed whole, and Search/TopK/Count fan out
// across the shards concurrently and merge the results. cmd/ustridxd serves
// a catalog over HTTP/JSON. The index backend is pluggable per collection
// (CatalogOptions.Backend / Catalog.AddWithBackend / AddWithSpec): the
// plain backend is the paper's structure, the compressed backend answers
// from an FM-index at a several-fold smaller footprint — bit-identically —
// and the approx backend serves the Section 7 ε-index, trading an additive
// error ε for optimal query time at any pattern length (top-k is rejected
// with ErrUnsupportedQuery; backends declare their semantics through
// BackendCapabilities).
//
// # Live ingestion
//
// IngestStore (OpenIngest) adds a write path on top of a catalog: Put and
// Delete mutate collections at runtime, every mutation is appended to a
// write-ahead log before it is acknowledged, queries run against immutable
// generation-stamped snapshots (LiveView) — each one Collection over the
// live documents, assembled from their already-built indexes — and a
// background compactor folds the live set into one index file per document,
// commits a manifest naming them, and truncates the log. A
// collection reached through any mutation history answers queries
// bit-identically to a statically built catalog over the same final
// document set.
//
// # Replication
//
// A mutable store's write-ahead logs double as a replication feed: a
// primary daemon serves them over HTTP, and a Follower (NewFollower) tails
// them into a local read-only IngestStore — copying the primary's index
// files it lacks, resuming from its byte offset after reconnects, and
// re-bootstrapping when the primary compacts a log away. A caught-up follower answers
// Search/TopK/Count bit-identically to its primary. See cmd/ustridxd's
// -follow flag for the packaged replica daemon.
//
// See the examples directory for complete programs modelled on the paper's
// motivating applications (genomics, ECG annotation streams, RFID event
// monitoring).
package uncertain

import (
	"io"
	"time"

	"repro/internal/approx"
	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/listing"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/special"
	"repro/internal/ustring"
)

// String is an uncertain string: a sequence of per-position character
// distributions, optionally with character-level correlations.
type String = ustring.String

// Position is one position's probability distribution.
type Position = ustring.Position

// Choice is one (character, probability) pair of a position.
type Choice = ustring.Choice

// Correlation declares a dependency between two (position, character) pairs.
type Correlation = ustring.Correlation

// World is one possible world of an uncertain string.
type World = ustring.World

// Index answers substring-search queries on a single uncertain string
// (the paper's Problem 1).
type Index = core.Index

// IndexBackend is the pluggable per-document index contract of the serving
// tier: the plain Index, the CompressedIndex and the ApproxBackend all
// satisfy it. The exact backends answer every query bit-identically — only
// memory footprint and query latency differ; the approximate backend
// declares its additive error ε through BackendCapabilities and answers
// under that bound.
type IndexBackend = core.Backend

// CompressedIndex is the space-efficient index backend: suffix ranges from
// an FM-index (wavelet-tree BWT) instead of an explicit suffix array,
// cutting resident memory several-fold at a bounded query-time cost.
type CompressedIndex = core.CompressedIndex

// ApproxBackend serves the Section 7 approximate ε-index through the
// serving tier's backend contract: optimal query time for any pattern
// length, additive error ε, no top-k (rejected with ErrUnsupportedQuery).
type ApproxBackend = core.ApproxBackend

// BackendSpec names a backend kind plus its construction parameters (the
// approx backend's ε); it travels through catalog options, ingest manifests
// and replication snapshots so every layer rebuilds a collection into the
// identical representation.
type BackendSpec = core.BackendSpec

// BackendCapabilities declares a backend's answer semantics (exact or
// ε-approximate, top-k support); serving layers consult it before
// dispatching an operation.
type BackendCapabilities = core.Capabilities

// ErrUnsupportedQuery reports an operation a backend's semantics cannot
// answer, e.g. top-k on the approximate ε-index. The HTTP tier maps it to
// 422.
var ErrUnsupportedQuery = core.ErrUnsupportedQuery

// Index backend names, as used in CatalogOptions.Backend, the daemon's
// -backend flag, and the PUT backend query parameter.
const (
	BackendPlain      = core.BackendPlain
	BackendCompressed = core.BackendCompressed
	BackendApprox     = core.BackendApprox
)

// DefaultEpsilon is the additive error bound approx backends get when none
// is configured.
const DefaultEpsilon = core.DefaultEpsilon

// Hit is one search result with its probability.
type Hit = core.Hit

// CollectionIndex answers string-listing queries over a collection
// (the paper's Problem 2).
type CollectionIndex = listing.Index

// ListResult is one listed document with its relevance.
type ListResult = listing.Result

// Metric selects the listing relevance function.
type Metric = listing.Metric

// Relevance metrics for CollectionIndex queries.
const (
	RelMax = listing.RelMax
	RelOR  = listing.RelOR
)

// ApproxIndex answers approximate substring-search queries with additive
// error ε in optimal time (the paper's Section 7).
type ApproxIndex = approx.Index

// ApproxMatch is one approximate search result.
type ApproxMatch = approx.Match

// GenConfig configures the synthetic dataset generator that reproduces the
// statistics of the paper's evaluation corpus (Section 8.1).
type GenConfig = gen.Config

// Deterministic builds an uncertain string with a single probability-1
// character per position.
func Deterministic(text string) *String { return ustring.Deterministic(text) }

// FromIUPAC converts a DNA sequence with IUPAC ambiguity codes (R, Y, N, …)
// into an uncertain string over {A,C,G,T}, spreading each code's mass
// uniformly over its base set — the paper's NC-IUB motivation (Section 2).
func FromIUPAC(seq string) (*String, error) { return ustring.FromIUPAC(seq) }

// Parse reads one uncertain string in the text encoding (one position per
// line, "C:prob" pairs separated by spaces, optional @corr directives).
func Parse(r io.Reader) (*String, error) { return ustring.Unmarshal(r) }

// ParseCollection reads a '%'-separated collection.
func ParseCollection(r io.Reader) ([]*String, error) { return ustring.UnmarshalCollection(r) }

// Write renders an uncertain string in the text encoding.
func Write(w io.Writer, s *String) error { return ustring.Marshal(w, s) }

// WriteCollection renders a collection in the text encoding.
func WriteCollection(w io.Writer, docs []*String) error {
	return ustring.MarshalCollection(w, docs)
}

// Must panics on err; it shortens examples and tests.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// NewIndex builds the substring-search index for thresholds τ ≥ tauMin.
func NewIndex(s *String, tauMin float64) (*Index, error) {
	return core.Build(s, tauMin)
}

// NewCollectionIndex builds the string-listing index for a collection.
func NewCollectionIndex(docs []*String, tauMin float64) (*CollectionIndex, error) {
	return listing.Build(docs, tauMin)
}

// NewApproxIndex builds the approximate index with additive error epsilon.
func NewApproxIndex(s *String, tauMin, epsilon float64) (*ApproxIndex, error) {
	return approx.Build(s, tauMin, epsilon)
}

// SpecialString is a special uncertain string (the paper's Definition 1):
// exactly one probabilistic character per position.
type SpecialString = special.String

// SpecialIndex is the Section 4 index for special uncertain strings. Unlike
// Index it has no construction threshold: any τ ∈ (0, 1] can be queried.
type SpecialIndex = special.Index

// NewSpecialIndex indexes a special uncertain string directly, with no
// Lemma 2 transformation.
func NewSpecialIndex(s *SpecialString) (*SpecialIndex, error) {
	return special.Build(s)
}

// SearchOnline matches p against s without building any index (the Li et
// al.-style dynamic-programming baseline). Prefer NewIndex for repeated
// queries.
func SearchOnline(s *String, p []byte, tau float64) []int {
	return baseline.MatchDP(s, p, tau)
}

// ReadIndex loads an index previously saved with Index.WriteTo: its query
// structures are read back as saved, not rebuilt (a file from before plain
// envelopes is decoded and rebuilt). Files holding a different backend are
// rejected; use ReadIndexBackend to load any backend.
func ReadIndex(r io.Reader) (*Index, error) { return core.ReadIndex(r) }

// NewIndexBackend builds the named index backend (BackendPlain,
// BackendCompressed or BackendApprox; empty means plain) for thresholds
// τ ≥ tauMin, with that kind's default parameters. Exact backends answer
// queries bit-identically; the approx backend under DefaultEpsilon.
func NewIndexBackend(kind string, s *String, tauMin float64) (IndexBackend, error) {
	return core.BuildBackend(kind, s, tauMin)
}

// NewApproxBackend builds the approximate serving backend with additive
// error epsilon (0 means DefaultEpsilon) — NewApproxIndex wrapped in the
// serving tier's backend contract.
func NewApproxBackend(s *String, tauMin, epsilon float64) (*ApproxBackend, error) {
	return core.BuildApprox(s, tauMin, epsilon)
}

// ReadIndexBackend loads an index of any backend previously saved with its
// WriteTo, dispatching on the file's format and backend kind.
func ReadIndexBackend(r io.Reader) (IndexBackend, error) { return core.ReadBackend(r) }

// GenerateString synthesises one uncertain string with the paper's corpus
// statistics (protein alphabet, uncertainty fraction cfg.Theta, ~5 choices
// per uncertain position).
func GenerateString(cfg GenConfig) *String { return gen.Single(cfg) }

// GenerateCollection synthesises a collection totalling cfg.N positions.
func GenerateCollection(cfg GenConfig) []*String { return gen.Collection(cfg) }

// Catalog is the sharded multi-document serving tier: named collections of
// uncertain strings, each document indexed whole, queries fanned out across
// shards and merged (see cmd/ustridxd for the HTTP front end).
type Catalog = catalog.Catalog

// Collection is one named sharded document set of a Catalog.
type Collection = catalog.Collection

// CatalogOptions configures catalog construction (threshold, shard count,
// build worker pool).
type CatalogOptions = catalog.Options

// DocHit is one catalog search result: an occurrence within a document.
type DocHit = catalog.DocHit

// Query is one catalog query as a value — an operation, a pattern and its
// threshold or k. Collection.Exec and LiveView.Exec are the one entry point
// that runs it; their Search, TopK and Count are one-line wrappers.
type Query = core.Query

// The operations of a Query.
const (
	OpSearch = core.OpSearch
	OpTopK   = core.OpTopK
	OpCount  = core.OpCount
)

// ExecOpts are the per-request extras of Exec (a Trace to time its stages);
// QueryResult is its answer.
type (
	ExecOpts    = catalog.ExecOpts
	QueryResult = catalog.Result
)

// NewCatalog returns an empty catalog; add collections with Add.
func NewCatalog(opts CatalogOptions) *Catalog { return catalog.New(opts) }

// OpenCatalog builds a catalog from a directory of '%'-separated collection
// files, one collection per file, named by base name.
func OpenCatalog(dir string, opts CatalogOptions) (*Catalog, error) {
	return catalog.Open(dir, opts)
}

// LoadCatalog restores a catalog previously written with Catalog.Save,
// reading each document's persisted index instead of rebuilding it.
func LoadCatalog(dir string, opts CatalogOptions) (*Catalog, error) {
	return catalog.Load(dir, opts)
}

// IngestStore is the mutable serving layer: WAL-backed document Put/Delete
// over a catalog, with background compaction.
type IngestStore = ingest.Store

// IngestOptions configures an IngestStore (WAL directory, construction
// options, compaction threshold, durability).
type IngestOptions = ingest.Options

// LiveView is one immutable snapshot of a mutable collection: it embeds the
// Collection over its live documents, so Exec, Search/TopK/Count and
// Estimate are that collection's own. All query methods are safe for
// concurrent use and never block on writers.
type LiveView = ingest.View

// PutResult reports where an acknowledged Put landed.
type PutResult = ingest.PutResult

// OpenIngest builds a mutable store over cat (which may be nil to start
// empty), re-opening each collection's manifest and index files and
// replaying its log so every previously acknowledged mutation is visible.
// Close the store to flush and release the logs.
func OpenIngest(cat *Catalog, opts IngestOptions) (*IngestStore, error) {
	return ingest.Open(cat, opts)
}

// WALRecord is one logged (and replicated) mutation of an IngestStore.
type WALRecord = ingest.WALRecord

// Follower tails a primary daemon's write-ahead logs into a local
// IngestStore, turning it into a read replica with bit-identical query
// results. Drive it with Run; inspect lag with Status.
type Follower = replica.Follower

// FollowerOptions configures a Follower (primary URL, target store, poll
// cadence).
type FollowerOptions = replica.FollowerOptions

// CollectionLag is one collection's replication state (applied and primary
// offsets, lag, bootstrap count).
type CollectionLag = replica.CollectionLag

// NewFollower validates opts and builds a replication follower; call Run to
// start tailing the primary.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	return replica.NewFollower(opts)
}

// Promotion is one collection's promotion record: the fencing epoch the new
// primary adopted and whether the old primary's feed was fully drained
// first. Follower.Promote returns one per collection.
type Promotion = replica.Promotion

// ErrStaleEpoch is returned (wrapped) by every mutation on a fenced
// IngestStore — one that has seen proof, via IngestStore.FenceIfStale, that
// a replica was promoted over it. Match with errors.Is and re-resolve the
// primary; the store keeps serving reads.
var ErrStaleEpoch = ingest.ErrStaleEpoch

// PromotionEpoch maps a collection's current WAL epoch to the epoch a
// promoted replica adopts: the next promotion generation (high 32 bits),
// clearing the local-checkpoint counter (low 32 bits). The result always
// out-ranks any epoch the demoted primary can reach on its own, so the old
// lineage fences itself on first contact.
func PromotionEpoch(cur uint64) uint64 {
	return replica.PromotionEpoch(cur)
}

// Observability: the obs re-exports let library embedders share one metrics
// registry across the layers they compose (catalog, ingest store, follower)
// and read it back in the Prometheus text exposition, exactly as the
// ustridxd daemon does. Pass a *MetricsRegistry through IngestOptions.Metrics
// and FollowerOptions.Metrics, or into a server Config.

// MetricsRegistry collects counters, gauges and histograms from every layer
// holding it and renders them in the Prometheus text format (0.0.4).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry {
	return obs.NewRegistry()
}

// Trace records one request's per-stage timings as it descends the query
// path; pass it to Collection.Exec or LiveView.Exec as ExecOpts.Trace. A nil
// *Trace is valid and records nothing.
type Trace = obs.Trace

// TraceStage is one timed step of a Trace.
type TraceStage = obs.Stage

// SlowLog is a fixed-capacity ring buffer of the slowest recent requests,
// each retained with its stage breakdown.
type SlowLog = obs.SlowLog

// SlowEntry is one retained slow request.
type SlowEntry = obs.SlowEntry

// NewSlowLog builds a slow-query log keeping the most recent capacity
// requests at or above threshold; a non-positive threshold disables it
// (nil is returned, and a nil log records nothing).
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	return obs.NewSlowLog(threshold, capacity)
}

// LintMetrics validates a Prometheus text exposition (as written by
// MetricsRegistry.WritePrometheus), reporting the first malformation.
func LintMetrics(data []byte) error {
	return obs.Lint(data)
}
