package core

import (
	"fmt"
	"sort"

	"repro/internal/factor"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// Index is the paper's Section 5 index: substring searching in a general
// uncertain string for any query threshold τ ≥ τmin. It keeps the engine,
// the source and — only when the source declares correlations, whose
// correction reads them — the transformation's per-position log
// probabilities; the rest of the transformation is not retained
// (Transformed recomputes it).
type Index struct {
	envSource // the source, and the envelope when opened from one
	engine    *Engine
	tauMin    float64
	logp      []float64 // nil without correlations
}

// Option configures Build.
type Option func(*buildOptions)

type buildOptions struct {
	longCap    int
	sampleRate int
}

// WithLongCap bounds the lengths covered by the long-pattern blocking
// scheme; longer patterns fall back to a range scan. The compressed backend
// has no blocking scheme and only records the value for persistence.
func WithLongCap(n int) Option {
	return func(o *buildOptions) { o.longCap = n }
}

// WithSampleRate sets the compressed backend's suffix-array sampling
// interval: smaller is faster to locate, larger is smaller in memory. The
// plain backend ignores it.
func WithSampleRate(n int) Option {
	return func(o *buildOptions) { o.sampleRate = n }
}

// Build transforms s with respect to tauMin (Lemma 2) and indexes the
// result. Queries support any τ ≥ tauMin.
func Build(s *ustring.String, tauMin float64, opts ...Option) (*Index, error) {
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
	return newIndex(s, tauMin, o.longCap, tr), nil
}

// newIndex indexes the transformation tr of s (fresh, or decoded from a
// legacy gob file).
func newIndex(s *ustring.String, tauMin float64, longCap int, tr *factor.Transformed) *Index {
	ix := &Index{envSource: envSource{src: s, srcLen: s.Len()}, tauMin: tauMin}
	var corr func(xStart, length int) float64
	if len(s.Corr) > 0 {
		ix.logp = tr.LogP
		corr = ix.corrHook(tr.T, tr.Pos)
	}
	ix.engine = NewEngine(EngineConfig{
		T:         tr.T,
		LogP:      tr.LogP,
		Pos:       tr.Pos,
		Key:       tr.Pos, // dedup key = original position (Section 5.2)
		KeySpace:  s.Len(),
		Corr:      corr,
		LongCap:   longCap,
		MaxWindow: tr.MaxFactorLen,
	})
	return ix
}

// Transform is factor.Transform plus the one adjustment correlations need,
// for every index that scores windows through corrAdjust-style arithmetic
// (the exact backends here, the listing index in internal/listing).
// A correlated character whose base probability is 0 stays in the factors
// when pr⁺ or pr⁻ makes it viable, but a LogZero base would poison every
// window over it before corrAdjust could replace that base by the corrected
// probability. Such positions get the neutral base 0 (probability 1)
// instead: corrAdjust subtracts the base it finds, so a window over one
// scores its corrected probability, as ustring.OccurrenceProb does.
func Transform(s *ustring.String, tauMin float64) (*factor.Transformed, error) {
	tr, err := factor.Transform(s, tauMin)
	if err != nil || len(s.Corr) == 0 {
		return tr, err
	}
	zero := make(map[int]bool)
	for _, c := range s.Corr {
		if s.ProbAt(c.At, c.Char) == 0 {
			zero[c.At<<8|int(c.Char)] = true
		}
	}
	if len(zero) == 0 {
		return tr, nil
	}
	for x, lp := range tr.LogP {
		if i := tr.Pos[x]; lp == prob.LogZero && i >= 0 && zero[int(i)<<8|int(tr.T[x])] {
			tr.LogP[x] = 0
		}
	}
	return tr, nil
}

// corrHook returns the engine's correlation hook over text t and position
// map pos — the engine's own arrays, which it is handed before it exists:
// the log-domain correction factor turning the base probability of the
// window starting at text position xStart into the correlation-corrected
// probability (Section 3.3 semantics; the Section 4.1
// divide-by-pr⁺-multiply-by-correct trick in log domain, generalised to
// base probabilities). It reads ix.src and ix.logp when called.
func (ix *Index) corrHook(t []byte, pos []int32) func(xStart, length int) float64 {
	return func(xStart, length int) float64 {
		return corrAdjust(ix.src, t, ix.logp, int(pos[xStart]), xStart, length)
	}
}

// CorrAdjust is corrAdjust for indexes built outside this package over a
// Transform output — the listing index — so that they score correlated
// windows in the same float-operation lockstep.
func CorrAdjust(src *ustring.String, t []byte, logp []float64, s0, xStart, length int) float64 {
	return corrAdjust(src, t, logp, s0, xStart, length)
}

// corrAdjust is the shared correlation-correction arithmetic for the window
// of the given length at text position xStart, whose first character sits at
// source position s0. Every backend routes through this one function so
// corrected probabilities stay in exact float-operation lockstep — the
// bit-identical-results guarantee depends on it.
func corrAdjust(src *ustring.String, t []byte, logp []float64, s0, xStart, length int) float64 {
	adj := 0.0
	for _, c := range src.Corr {
		if c.At < s0 || c.At >= s0+length {
			continue
		}
		xc := xStart + (c.At - s0)
		if t[xc] != c.Char {
			continue
		}
		var corrected float64
		if c.DepAt >= s0 && c.DepAt < s0+length {
			// Case 1: the partner position is inside the window.
			if t[xStart+(c.DepAt-s0)] == c.DepChar {
				corrected = c.ProbWhenPresent
			} else {
				corrected = c.ProbWhenAbsent
			}
		} else {
			// Case 2: partner outside; marginalise over its distribution.
			dp := src.ProbAt(c.DepAt, c.DepChar)
			if dp < 0 {
				dp = 0
			}
			corrected = dp*c.ProbWhenPresent + (1-dp)*c.ProbWhenAbsent
		}
		adj += prob.Log(corrected) - logp[xc]
	}
	return adj
}

// Search reports every starting position of s where p occurs with
// probability strictly greater than tau, in increasing position order
// (Problem 1). tau must satisfy tauMin ≤ tau ≤ 1.
func (ix *Index) Search(p []byte, tau float64) ([]int, error) {
	hits, err := ix.SearchHits(p, tau)
	if err != nil || len(hits) == 0 {
		return nil, err
	}
	out := make([]int, len(hits))
	for i, h := range hits {
		out[i] = int(h.Orig)
	}
	sort.Ints(out)
	return out, nil
}

// SearchHits is Search with per-occurrence probabilities, in decreasing
// probability order (the natural order of the recursive RMQ extraction).
func (ix *Index) SearchHits(p []byte, tau float64) ([]Hit, error) {
	return ix.SearchHitsCosted(p, tau, nil)
}

// SearchHitsCosted is SearchHits accumulating cost counters into st (nil
// records nothing).
func (ix *Index) SearchHitsCosted(p []byte, tau float64, st *QueryStats) ([]Hit, error) {
	if err := ValidateQuery(p, tau, ix.tauMin); err != nil {
		return nil, err
	}
	return ix.engine.QueryCosted(p, tau, st)
}

// SearchTopK reports the k most probable occurrences of p, in decreasing
// probability order (ties by increasing position). Because every transformed
// occurrence has probability at least tauMin, top-k below that mass may be
// incomplete; all returned hits satisfy probability ≥ tauMin.
func (ix *Index) SearchTopK(p []byte, k int) ([]Hit, error) {
	return ix.engine.TopK(p, k)
}

// SearchTopKCosted is SearchTopK accumulating cost counters into st.
func (ix *Index) SearchTopKCosted(p []byte, k int, st *QueryStats) ([]Hit, error) {
	return ix.engine.TopKCosted(p, k, st)
}

// SearchCount returns the number of occurrences of p with probability
// strictly greater than tau, without materialising positions.
func (ix *Index) SearchCount(p []byte, tau float64) (int, error) {
	return ix.SearchCountCosted(p, tau, nil)
}

// SearchCountCosted is SearchCount accumulating cost counters into st.
func (ix *Index) SearchCountCosted(p []byte, tau float64, st *QueryStats) (int, error) {
	if err := ValidateQuery(p, tau, ix.tauMin); err != nil {
		return 0, err
	}
	return ix.engine.CountCosted(p, tau, st)
}

// SearchIter streams occurrences of p above tau in decreasing probability
// order (unordered for patterns longer than log N) until visit returns
// false.
func (ix *Index) SearchIter(p []byte, tau float64, visit func(Hit) bool) error {
	if err := ValidateQuery(p, tau, ix.tauMin); err != nil {
		return err
	}
	return ix.engine.Iterate(p, tau, visit)
}

// TauMin returns the construction threshold.
func (ix *Index) TauMin() float64 { return ix.tauMin }

// Transformed recomputes the Lemma 2 transformation of the source (used by
// tooling and examples to report expansion statistics); the index itself
// does not keep it. It is nil only for a source that no longer transforms,
// which a built or checksum-verified index rules out.
func (ix *Index) Transformed() *factor.Transformed {
	tr, _ := Transform(ix.Source(), ix.tauMin)
	return tr
}

// Engine exposes the underlying engine (used by the benchmarks' space
// accounting).
func (ix *Index) Engine() *Engine { return ix.engine }

// Space itemises the index memory: the engine's arrays plus the
// per-position log probabilities, when correlations keep them.
func (ix *Index) Space() SpaceBreakdown {
	s := ix.engine.Space()
	s.ProbArray += len(ix.logp) * 8
	return s
}

// Bytes is the total index footprint.
func (ix *Index) Bytes() int { return ix.Space().Total() }
