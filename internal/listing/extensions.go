package listing

import (
	"fmt"

	"repro/internal/core"
)

// This file extends the Section 6 index beyond the paper: top-k document
// retrieval (the Hon–Shah–Vitter problem the paper's Section 7 framework
// originates from).

// ListTopK reports the k most relevant documents containing p under the
// RelMax metric, in decreasing relevance order. The per-run document
// deduplication keeps each document's best occurrence visible to the
// range-maximum structures, so the best-first extraction enumerates
// documents in exact relevance order and stops after k.
func (ix *Index) ListTopK(p []byte, k int) ([]Result, error) {
	hits, err := ix.engine.TopK(p, k)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(hits))
	for i, h := range hits {
		out[i] = Result{Doc: int(h.Key), Rel: h.Prob()}
	}
	return out, nil
}

// ListCount returns the number of documents containing p above tau without
// materialising them.
func (ix *Index) ListCount(p []byte, tau float64) (int, error) {
	if tau < ix.tauMin-1e-9 {
		return 0, fmt.Errorf("%w (tau=%v, tau_min=%v)", core.ErrTauBelowTauMin, tau, ix.tauMin)
	}
	return ix.engine.Count(p, tau)
}
