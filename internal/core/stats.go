package core

// QueryStats accumulates the resource counters of one backend query — the
// per-document slice of the request-level obs.Cost the serving tier
// attributes. It lives in core (not internal/obs) so the index layers stay
// free of serving dependencies; the catalog sums per-shard QueryStats into
// the request's Cost at the fan-out join.
//
// A nil *QueryStats is valid everywhere and records nothing. Query paths
// count into local integers inside their hot loops and flush once on exit,
// so the uninstrumented path pays no pointer-chasing per candidate.
type QueryStats struct {
	// Candidates counts candidate positions examined: RMQ-stack pops,
	// scanned suffix-range entries, FM rows located, suffix-tree links
	// evaluated.
	Candidates int64
	// SuffixSteps counts suffix-structure steps: binary-search probes,
	// FM backward-search steps and LF hops, locus descents and RMQ pops.
	SuffixSteps int64
	// IndexBytes estimates the bytes of index data touched, from the
	// documented per-operation constants below.
	IndexBytes int64
}

// add flushes a query path's local counters. No-op on nil.
func (st *QueryStats) add(cands, steps, bytes int64) {
	if st == nil {
		return
	}
	st.Candidates += cands
	st.SuffixSteps += steps
	st.IndexBytes += bytes
}

// Add sums other into st (the catalog's fan-out join). No-op on nil st;
// a nil other adds nothing.
func (st *QueryStats) Add(other *QueryStats) {
	if st == nil || other == nil {
		return
	}
	st.Candidates += other.Candidates
	st.SuffixSteps += other.SuffixSteps
	st.IndexBytes += other.IndexBytes
}

// Per-operation index-byte estimates. These are accounting constants, not
// measurements: each names the index data one step of the corresponding
// path must read, so IndexBytes ranks queries by data touched rather than
// reporting allocator truth. OPERATIONS.md derives per-backend $/query
// constants from them.
const (
	// plainCandidateBytes: one examined suffix-array entry on the plain
	// backend — the SA value (4) + two log-domain prefix sums (16) + the
	// dedup bit / key read (4).
	plainCandidateBytes = 24
	// plainBlockBytes: one long-pattern block maximum — the float32 value
	// plus its RMQ node.
	plainBlockBytes = 8
	// fmStepBytes: one FM backward-search step — a two-boundary wavelet-tree
	// descent, two reads at each of log σ bit-vector levels.
	fmStepBytes = 16
	// fmHopBytes: one LF hop of the Locate walk — one wavelet-tree descent,
	// a fused rank-and-bit read at each of log σ levels. (The value predates
	// the one-descent LF and is kept: EstimateQuery's calibration and
	// OPERATIONS.md's $/query table are derived from it.)
	fmHopBytes = 12
	// fmCandidateBytes: one located FM row — sampled-SA read (4) + two
	// prefix sums (16) + the position map's block count and run delta
	// (4, both usually cache-resident: a document's map is a few KB).
	fmCandidateBytes = 24
	// approxLinkBytes: one evaluated ε-index link — probability (4),
	// position (4), depth interval (8), RMQ node (4).
	approxLinkBytes = 20
)
