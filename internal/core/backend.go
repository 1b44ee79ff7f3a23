package core

// Backend abstraction: the serving tier (catalog → ingest → replica) talks
// to per-document indexes through the Backend interface, so the index
// *representation* — and, since the approximate backend joined, the index
// *semantics* — is pluggable per collection. Three implementations exist:
//
//   - BackendPlain (*Index): the paper's Section 4/5 structure — explicit
//     suffix array + per-length RMQ levels. Fastest queries, largest
//     footprint, exact.
//   - BackendCompressed (*CompressedIndex): the Section 8.7 alternative —
//     suffix ranges from an FM-index (wavelet-tree BWT, internal/fm) with a
//     sampled suffix array, probabilities from the shared log-domain prefix
//     sums. Several-fold smaller resident footprint at a bounded query-time
//     cost, exact.
//   - BackendApprox (*ApproxBackend): the Section 7 structure — ε-refined
//     Hon–Shah–Vitter links over the suffix tree of the transformed text.
//     Optimal query time for any pattern length at the cost of an additive
//     error ε: every reported hit has true probability > τ−ε, nothing with
//     probability > τ is missed, and the reported probability underestimates
//     the truth by at most ε.
//
// The exact backends compute window probabilities through the identical
// prob.Prefix arithmetic over the identical Lemma 2 transformation, so they
// answer Search/TopK/Count with bit-identical positions and probabilities
// (see backend_test.go for the equivalence grid). The approximate backend
// instead declares its semantics through Capabilities: serving layers
// consult them before dispatch and reject operations a backend cannot
// answer (SearchTopK on the ε-index) with the typed ErrUnsupportedQuery
// rather than silently degrading.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/ustring"
)

// Backend kind names, as spelled in configuration flags, a collection's
// <name>.manifest and the persisted index envelope.
const (
	// BackendPlain is the uncompressed Section 4/5 index (*Index).
	BackendPlain = "plain"
	// BackendCompressed is the FM-index-backed representation
	// (*CompressedIndex).
	BackendCompressed = "compressed"
	// BackendApprox is the Section 7 approximate ε-index (*ApproxBackend).
	BackendApprox = "approx"
)

// DefaultEpsilon is the additive error bound an approx BackendSpec gets when
// none is given explicitly.
const DefaultEpsilon = 0.05

// BackendKinds lists every compiled-in backend kind in presentation order,
// as surfaced by build_info and the -version flag.
func BackendKinds() []string {
	return []string{BackendPlain, BackendCompressed, BackendApprox}
}

// ErrUnsupportedQuery reports an operation a backend's semantics cannot
// answer (for example SearchTopK on the approximate ε-index, whose ranking
// guarantee is only ε-accurate). Serving layers map it to a 4xx status —
// the request is well-formed, the collection's backend just does not
// support it.
var ErrUnsupportedQuery = errors.New("core: query not supported by this backend")

// ParseBackend normalises a backend kind name: the empty string selects
// BackendPlain, anything unrecognised is an error.
func ParseBackend(s string) (string, error) {
	switch s {
	case "", BackendPlain:
		return BackendPlain, nil
	case BackendCompressed:
		return BackendCompressed, nil
	case BackendApprox:
		return BackendApprox, nil
	}
	return "", fmt.Errorf("core: unknown index backend %q (want %q, %q or %q)",
		s, BackendPlain, BackendCompressed, BackendApprox)
}

// Capabilities declares a backend's answer semantics. Serving layers consult
// them before dispatching an operation, so an unsupported combination is a
// typed rejection instead of a panic or a silently wrong answer.
type Capabilities struct {
	// Exact reports whether Search/SearchHits/SearchCount answer the precise
	// occurrence set with bit-identical probabilities across backends.
	Exact bool
	// Epsilon is the additive error bound of an approximate backend: every
	// reported hit has true probability > τ−ε and reported probabilities
	// underestimate the truth by at most ε. 0 for exact backends.
	Epsilon float64
	// TopK reports whether SearchTopK is supported. Backends without it
	// answer SearchTopK with ErrUnsupportedQuery.
	TopK bool
}

// BackendSpec names a backend kind together with its construction
// parameters — the value that travels through catalog options and every
// collection's <name>.manifest (a WAL directory's, an index cache's, and the
// one a follower copies from its primary), so every layer rebuilds a
// collection into the identical representation. The zero value means "the
// plain backend".
type BackendSpec struct {
	// Kind is one of BackendPlain, BackendCompressed, BackendApprox.
	Kind string
	// Epsilon is the additive error bound of an approx spec; always 0 for
	// exact kinds and always in (0, 1) for approx (NewBackendSpec defaults
	// it to DefaultEpsilon).
	Epsilon float64
}

// NewBackendSpec validates and normalises a (kind, epsilon) pair: the kind
// is parsed (empty means plain), exact kinds must come with epsilon 0, and
// an approx spec's epsilon is defaulted to DefaultEpsilon when 0 and must
// lie in (0, 1) otherwise.
func NewBackendSpec(kind string, epsilon float64) (BackendSpec, error) {
	kind, err := ParseBackend(kind)
	if err != nil {
		return BackendSpec{}, err
	}
	if kind != BackendApprox {
		if epsilon != 0 {
			return BackendSpec{}, fmt.Errorf("core: epsilon only applies to the %q backend (got kind %q, epsilon %v)",
				BackendApprox, kind, epsilon)
		}
		return BackendSpec{Kind: kind}, nil
	}
	if epsilon == 0 {
		epsilon = DefaultEpsilon
	}
	if math.IsNaN(epsilon) || epsilon <= 0 || epsilon >= 1 {
		return BackendSpec{}, fmt.Errorf("core: approx epsilon must be in (0, 1) (got %v)", epsilon)
	}
	return BackendSpec{Kind: BackendApprox, Epsilon: epsilon}, nil
}

// normalize resolves a possibly zero-valued spec to its canonical form.
func (sp BackendSpec) normalize() (BackendSpec, error) {
	return NewBackendSpec(sp.Kind, sp.Epsilon)
}

// String renders the spec for messages: "plain", or "approx(ε=0.05)".
func (sp BackendSpec) String() string {
	if sp.Kind == BackendApprox {
		return fmt.Sprintf("%s(ε=%s)", sp.Kind, strconv.FormatFloat(sp.Epsilon, 'g', -1, 64))
	}
	if sp.Kind == "" {
		return BackendPlain
	}
	return sp.Kind
}

// Encode renders the spec in the durable single-line form a manifest's
// "spec" field stores: the bare kind for exact backends, "approx <epsilon>" for
// the ε-index. DecodeBackendSpec round-trips it exactly (the epsilon is
// formatted shortest-exact).
func (sp BackendSpec) Encode() string {
	if sp.Kind == BackendApprox {
		return sp.Kind + " " + strconv.FormatFloat(sp.Epsilon, 'g', -1, 64)
	}
	if sp.Kind == "" {
		return BackendPlain
	}
	return sp.Kind
}

// DecodeBackendSpec parses the durable form written by Encode. A bare kind
// decodes to that kind with no parameters; it is also the whole content of
// the legacy <name>.backend sidecar, which only ingest's one-shot conversion
// of an old WAL directory still reads.
func DecodeBackendSpec(s string) (BackendSpec, error) {
	fields := strings.Fields(s)
	switch len(fields) {
	case 0:
		return BackendSpec{}, errors.New("core: empty backend spec")
	case 1:
		return NewBackendSpec(fields[0], 0)
	case 2:
		if fields[0] != BackendApprox {
			return BackendSpec{}, fmt.Errorf("core: backend spec %q: only %q takes a parameter", s, BackendApprox)
		}
		eps, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return BackendSpec{}, fmt.Errorf("core: backend spec %q: bad epsilon: %v", s, err)
		}
		return NewBackendSpec(fields[0], eps)
	}
	return BackendSpec{}, fmt.Errorf("core: backend spec %q has too many fields", s)
}

// Capabilities reports the semantics a backend built from this spec will
// declare, letting serving layers consult capabilities without holding an
// index.
func (sp BackendSpec) Capabilities() Capabilities {
	if sp.Kind == BackendApprox {
		return Capabilities{Exact: false, Epsilon: sp.Epsilon, TopK: false}
	}
	return Capabilities{Exact: true, TopK: true}
}

// Build constructs the spec's backend over s for thresholds ≥ tauMin. A
// zero-valued or partially filled spec is normalised first, so callers may
// pass {Kind: "approx"} and get the default ε.
func (sp BackendSpec) Build(s *ustring.String, tauMin float64, opts ...Option) (Backend, error) {
	sp, err := sp.normalize()
	if err != nil {
		return nil, err
	}
	switch sp.Kind {
	case BackendCompressed:
		return BuildCompressed(s, tauMin, opts...)
	case BackendApprox:
		return BuildApprox(s, tauMin, sp.Epsilon)
	default:
		return Build(s, tauMin, opts...)
	}
}

// SpecOf reports the spec a backend instance was built with.
func SpecOf(b Backend) BackendSpec {
	return BackendSpec{Kind: b.Kind(), Epsilon: b.Capabilities().Epsilon}
}

// Backend is the per-document index contract of the serving tier. All
// implementations are immutable after construction and safe for concurrent
// use. Exact backends (Capabilities().Exact) answer each method
// bit-identically for one document and construction threshold — the same
// positions and the same probabilities: ordered results (Search's position
// order, SearchTopK's canonical order) match as exact sequences, and
// SearchHits guarantees the identical hit *set* (position, probability)
// while the sequence of equal-probability hits may differ by backend.
// Approximate backends answer under their declared ε instead: the reported
// set contains every occurrence above τ, contains nothing at or below τ−ε,
// and reported probabilities are within ε below the truth.
//
// The serving layers reach a backend only through Query.Run. The per-op
// methods are nevertheless kept, deliberately, rather than collapsed into one
// Exec: benchmark/ladder.go measures SearchHits, SearchTopK, SearchCount and
// SearchHitsCosted by name on Backend values, and the benchmark must build
// unchanged against every commit it compares.
type Backend interface {
	// Search reports every starting position where p occurs with
	// probability strictly greater than tau (under the backend's declared
	// semantics), in increasing position order.
	Search(p []byte, tau float64) ([]int, error)
	// SearchHits is Search with per-occurrence probabilities. Only the hit
	// set is part of the cross-backend contract; the sequence is
	// backend-specific (callers needing an order sort, as the catalog's
	// merge does).
	SearchHits(p []byte, tau float64) ([]Hit, error)
	// SearchTopK reports the k most probable occurrences under the
	// canonical order: decreasing probability, ties by increasing position.
	// Backends whose Capabilities lack TopK answer ErrUnsupportedQuery.
	SearchTopK(p []byte, k int) ([]Hit, error)
	// SearchCount counts occurrences above tau without materialising them.
	SearchCount(p []byte, tau float64) (int, error)
	// SearchHitsCosted, SearchTopKCosted and SearchCountCosted answer
	// identically to their plain counterparts while accumulating the
	// query's resource counters into st — the per-document slice of the
	// serving tier's request-level cost attribution. A nil st is valid and
	// records nothing; implementations must not retain st.
	SearchHitsCosted(p []byte, tau float64, st *QueryStats) ([]Hit, error)
	SearchTopKCosted(p []byte, k int, st *QueryStats) ([]Hit, error)
	SearchCountCosted(p []byte, tau float64, st *QueryStats) (int, error)
	// TauMin returns the construction threshold.
	TauMin() float64
	// Source returns the indexed uncertain string.
	Source() *ustring.String
	// Kind returns the backend name (BackendPlain, BackendCompressed or
	// BackendApprox).
	Kind() string
	// Capabilities declares the backend's answer semantics; serving layers
	// consult them before dispatch.
	Capabilities() Capabilities
	// Bytes is the resident index footprint (excluding the source string).
	Bytes() int
	// WriteTo persists the index in the versioned envelope ReadBackend
	// understands.
	WriteTo(w io.Writer) (int64, error)
}

// Compile-time interface checks.
var (
	_ Backend = (*Index)(nil)
	_ Backend = (*CompressedIndex)(nil)
	_ Backend = (*ApproxBackend)(nil)
)

// Kind reports BackendPlain.
func (ix *Index) Kind() string { return BackendPlain }

// Capabilities reports exact semantics with full top-k support.
func (ix *Index) Capabilities() Capabilities { return Capabilities{Exact: true, TopK: true} }

// Capabilities reports exact semantics with full top-k support.
func (cx *CompressedIndex) Capabilities() Capabilities { return Capabilities{Exact: true, TopK: true} }

// BuildBackend builds the named backend over s for thresholds ≥ tauMin with
// that kind's default parameters (approx gets DefaultEpsilon). The empty
// kind selects BackendPlain; use BackendSpec.Build to control parameters.
func BuildBackend(kind string, s *ustring.String, tauMin float64, opts ...Option) (Backend, error) {
	sp, err := NewBackendSpec(kind, 0)
	if err != nil {
		return nil, err
	}
	return sp.Build(s, tauMin, opts...)
}
