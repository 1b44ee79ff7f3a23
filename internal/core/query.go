package core

// Op selects which read-out of the paper's one query model — a deterministic
// pattern against one suffix range and one family of probability arrays — a
// Query asks for.
type Op uint8

// Query operations.
const (
	// OpSearch reports every occurrence with probability above Tau.
	OpSearch Op = iota
	// OpTopK reports the K most probable occurrences.
	OpTopK
	// OpCount counts the occurrences above Tau without materialising them.
	OpCount
)

// String returns the operation name used in metric labels, the slow log and
// the batch wire format: "search", "topk" or "count".
func (op Op) String() string {
	switch op {
	case OpTopK:
		return "topk"
	case OpCount:
		return "count"
	}
	return "search"
}

// Query is one query as a value: the serving layers (catalog.Collection,
// ingest.View, the server) each execute it through a single Exec instead of
// one method per operation.
type Query struct {
	Op      Op
	Pattern []byte
	// Tau is the probability threshold of OpSearch and OpCount; OpTopK
	// ignores it.
	Tau float64
	// K is the result bound of OpTopK; the other operations ignore it. A
	// K ≤ 0 is valid and selects nothing.
	K int
}

// Validate reports the error the query would return against indexes built
// for thresholds ≥ tauMin, without running it: ErrEmptyPattern,
// ErrBadPattern, ErrTauOutOfRange or ErrTauBelowTauMin. OpTopK has no
// threshold, so only its pattern is checked.
func (q Query) Validate(tauMin float64) error {
	if q.Op == OpTopK {
		return ValidateQuery(q.Pattern, 1, 0)
	}
	return ValidateQuery(q.Pattern, q.Tau, tauMin)
}

// Run executes the query against one backend, accumulating its resource
// counters into st (nil records nothing). OpCount returns no hits and the
// count; the other operations return their hits and len(hits). This is the
// only place below the server where an operation is dispatched onto a
// backend method.
func (q Query) Run(b Backend, st *QueryStats) ([]Hit, int, error) {
	switch q.Op {
	case OpTopK:
		hits, err := b.SearchTopKCosted(q.Pattern, q.K, st)
		return hits, len(hits), err
	case OpCount:
		n, err := b.SearchCountCosted(q.Pattern, q.Tau, st)
		return nil, n, err
	}
	hits, err := b.SearchHitsCosted(q.Pattern, q.Tau, st)
	return hits, len(hits), err
}
