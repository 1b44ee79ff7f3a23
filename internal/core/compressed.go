package core

import (
	"fmt"
	"slices"

	"repro/internal/factor"
	"repro/internal/fm"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// CompressedIndex is the space-efficient backend: substring searching in a
// general uncertain string for any τ ≥ τmin, answered from a compressed
// representation of the Section 4/5 machinery. Where the plain Index keeps
// the explicit suffix array plus one RMQ level per pattern length, the
// compressed backend keeps only
//
//   - an FM-index over the transformed text (the wavelet-tree BWT of
//     internal/fm — the compressed suffix array of the paper's Section 8.7)
//     with a sampled suffix array for locating,
//   - the log-domain prefix sums (the C array), and
//   - a factor.Map: one bit per text position marking the zero-probability
//     positions (separators included) and one offset per run between them.
//     It stands in for the Pos array and for the C array's zero counts,
//     both of which depend only on which factor a position lies in.
//
// Queries retrieve the suffix range by backward search, then scan it in
// one pass. The first backward-search step reads the cumulative counts, the
// others are one wavelet descent each. A row then costs one locate (an LF
// walk to the nearest sample) and one rank on the position map, which gives
// the row's original position and run; the window's own marked bits give
// its liveness, and its probability is the difference of the same prefix
// sums the plain engine uses, tested against log(τ) taken once per query.
// A pooled keep-max table indexed by original position reproduces the
// duplicate-elimination bitmaps' effect, ties to the first row in
// suffix-array order. The probability arithmetic is identical float64
// operations on identical inputs, so results are bit-identical to the
// plain backend's — at a query cost of O(m log σ + range·(rate/2)·log σ)
// instead of O(m + occ): 1.5 LF hops per located row at the default rate
// of 4. On the standard workload (BENCH_4.json) that is ≈ 1.3–1.6× the
// plain backend's latency for m ≥ 4 and ≈ 1.75× at m = 2, where the range
// is widest, for ≈ 5× fewer index bytes.
//
// The FM-index reserves byte 0xFF; a document whose transformed text uses it
// cannot be compressed and Build fails (the plain backend has no such
// limit). Patterns containing 0xFF simply never match, exactly as with the
// plain backend.
type CompressedIndex struct {
	envSource // the source, and the envelope when opened from one
	tauMin    float64
	longCap   int
	rate      int

	fm   *fm.Index
	sums []float64 // sums[i] = Σ_{k<i} log p_k over unmarked positions; len n+1
	fmap *factor.Map

	// Correlation support: corrAdjust reads the raw transformed text and
	// per-position log probabilities, so both are retained — but only when
	// the source declares correlations (t is nil otherwise).
	t    []byte
	logp []float64
}

// BuildCompressed transforms s with respect to tauMin (Lemma 2) and indexes
// the result compressedly. Queries support any τ ≥ tauMin and answer
// bit-identically to the plain Build.
func BuildCompressed(s *ustring.String, tauMin float64, opts ...Option) (*CompressedIndex, error) {
	var o buildOptions
	for _, opt := range opts {
		opt(&o)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input string: %w", err)
	}
	tr, err := Transform(s, tauMin)
	if err != nil {
		return nil, err
	}
	return newCompressed(s, tauMin, o.longCap, o.sampleRate, tr)
}

// newCompressed assembles the backend from a transformation (fresh or
// deserialised). Only T, LogP and Pos of tr are used; the transformation
// itself is not retained. The prefix sums are prob.NewPrefix's, term for
// term: zero-probability positions add nothing and are marked in the map.
func newCompressed(s *ustring.String, tauMin float64, longCap, rate int, tr *factor.Transformed) (*CompressedIndex, error) {
	if rate <= 0 {
		rate = fm.DefaultSampleRate
	}
	fmx, err := fm.New(tr.T, rate)
	if err != nil {
		return nil, fmt.Errorf("core: compressed backend: %w", err)
	}
	cx := &CompressedIndex{
		envSource: envSource{src: s, srcLen: s.Len()},
		tauMin:    tauMin,
		longCap:   longCap,
		rate:      rate,
		fm:        fmx,
		sums:      make([]float64, len(tr.LogP)+1),
		fmap:      tr.Map(),
	}
	bits := cx.fmap.Bits()
	var run float64
	for i, lp := range tr.LogP {
		if !bits.Get(i) {
			run += lp
		}
		cx.sums[i+1] = run
	}
	if len(s.Corr) > 0 {
		cx.t = tr.T
		cx.logp = tr.LogP
	}
	return cx, nil
}

// scan walks the suffix range of p and keeps, per dedup key (original
// position), the most probable window above tau (0 keeps every live window)
// — ties resolved to the first entry in suffix-array order, exactly like the
// plain engine's duplicate bitmaps and scan paths. A row costs one locate
// and one position-map rank: the rank gives the key and the run, the
// window's own marked bits give liveness, and the log probability is the
// difference of the identical prefix sums the plain engine's prob.Prefix
// holds. The returned table holds the survivors in first-seen order; the
// caller copies out what it needs and releases it.
func (cx *CompressedIndex) scan(p []byte, tau float64, st *QueryStats) *keepMax {
	lo, hi, ok, steps := cx.fm.RangeCount(p)
	if !ok {
		st.add(0, int64(steps), int64(steps)*fmStepBytes)
		return nil
	}
	m := len(p)
	thr := prob.NewThreshold(tau)
	km := getKeepMax(cx.srcLen)
	var hops int64
	for j := lo; j <= hi; j++ {
		x, h := cx.fm.LocateCount(j)
		hops += int64(h)
		xi := int(x)
		if xi+m >= len(cx.sums) {
			continue
		}
		k, live := cx.fmap.Window(xi, m)
		if !live || k < 0 || k >= cx.srcLen {
			continue // out-of-range keys only over corrupt (unverified mapped) data
		}
		lp := cx.sums[xi+m] - cx.sums[xi]
		if cx.t != nil {
			// The shared correction (index.go) keeps corrected
			// probabilities bit-identical across backends.
			lp += corrAdjust(cx.src, cx.t, cx.logp, k, xi, m)
		}
		if thr.Passes(lp) {
			km.keep(Hit{XPos: x, Orig: int32(k), Key: int32(k), LogProb: lp})
		}
	}
	scanned := int64(hi - lo + 1)
	st.add(scanned, int64(steps)+hops,
		int64(steps)*fmStepBytes+hops*fmHopBytes+scanned*fmCandidateBytes)
	return km
}

// Search reports every starting position where p occurs with probability
// strictly greater than tau, in increasing position order (Problem 1).
func (cx *CompressedIndex) Search(p []byte, tau float64) ([]int, error) {
	if err := ValidateQuery(p, tau, cx.tauMin); err != nil {
		return nil, err
	}
	km := cx.scan(p, tau, nil)
	if km == nil || len(km.hits) == 0 {
		km.release()
		return nil, nil
	}
	out := make([]int, len(km.hits))
	for i, h := range km.hits {
		out[i] = int(h.Orig)
	}
	km.release()
	slices.Sort(out)
	return out, nil
}

// SearchHits is Search with per-occurrence probabilities, in decreasing
// probability order (ties by increasing position).
func (cx *CompressedIndex) SearchHits(p []byte, tau float64) ([]Hit, error) {
	return cx.SearchHitsCosted(p, tau, nil)
}

// SearchHitsCosted is SearchHits accumulating cost counters into st (nil
// records nothing).
func (cx *CompressedIndex) SearchHitsCosted(p []byte, tau float64, st *QueryStats) ([]Hit, error) {
	if err := ValidateQuery(p, tau, cx.tauMin); err != nil {
		return nil, err
	}
	km := cx.scan(p, tau, st)
	hits := km.clone()
	km.release()
	sortHitsByProb(hits)
	return hits, nil
}

// SearchTopK reports the k most probable occurrences of p under the
// canonical order (decreasing probability, ties by increasing position) —
// the same sequence the plain backend reports. All returned hits have
// probability ≥ tauMin.
func (cx *CompressedIndex) SearchTopK(p []byte, k int) ([]Hit, error) {
	return cx.SearchTopKCosted(p, k, nil)
}

// SearchTopKCosted is SearchTopK accumulating cost counters into st.
func (cx *CompressedIndex) SearchTopKCosted(p []byte, k int, st *QueryStats) ([]Hit, error) {
	if err := ValidateQuery(p, 1, 0); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	km := cx.scan(p, 0, st)
	if km == nil {
		return nil, nil
	}
	hits := topKHits(km.hits, k)
	km.release()
	return hits, nil
}

// SearchCount returns the number of occurrences of p with probability
// strictly greater than tau, without materialising positions.
func (cx *CompressedIndex) SearchCount(p []byte, tau float64) (int, error) {
	return cx.SearchCountCosted(p, tau, nil)
}

// SearchCountCosted is SearchCount accumulating cost counters into st.
func (cx *CompressedIndex) SearchCountCosted(p []byte, tau float64, st *QueryStats) (int, error) {
	if err := ValidateQuery(p, tau, cx.tauMin); err != nil {
		return 0, err
	}
	km := cx.scan(p, tau, st)
	if km == nil {
		return 0, nil
	}
	n := len(km.hits)
	km.release()
	return n, nil
}

// TauMin returns the construction threshold.
func (cx *CompressedIndex) TauMin() float64 { return cx.tauMin }

// Kind reports BackendCompressed.
func (cx *CompressedIndex) Kind() string { return BackendCompressed }

// SampleRate returns the FM-index suffix-array sampling interval.
func (cx *CompressedIndex) SampleRate() int { return cx.rate }

// Space itemises the resident index memory in the plain backend's
// categories: the FM-index stands in for text+suffix array, the prefix sums
// are the probability array, and the position map (plus the
// correlation-support arrays, when retained) is the position bookkeeping.
// The RMQ-level categories are zero — the compressed backend has none.
func (cx *CompressedIndex) Space() SpaceBreakdown {
	return SpaceBreakdown{
		TextAndSA:  cx.fm.Bytes(),
		ProbArray:  len(cx.sums) * 8,
		PosAndKeys: cx.fmap.Bytes() + len(cx.t) + len(cx.logp)*8,
	}
}

// Bytes is the total resident index footprint.
func (cx *CompressedIndex) Bytes() int { return cx.Space().Total() }
