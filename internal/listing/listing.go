// Package listing implements the paper's Problem 2 (Section 6): given a
// collection D = {d1..dD} of uncertain strings, report every string that
// contains a deterministic query pattern with probability of occurrence
// greater than τ, for any τ ≥ τmin.
//
// Construction transforms each document with Lemma 2, concatenates the
// transformed texts (each factor already ends in a separator, which plays
// the role of the paper's '$'), and builds the shared core engine with the
// *document identifier* as the duplicate-elimination key: inside every
// depth-i run of the generalized suffix array, only the most relevant
// occurrence of each document survives, so the recursive range-maximum query
// reports each qualifying document exactly once — O(m + occ_docs) for short
// patterns under the Rel_max metric.
//
// The Rel_OR metric (Section 6's OR-combination of occurrence probabilities)
// inherently needs every occurrence, so those queries gather the full
// occurrence set of the suffix range, as the paper concedes for complex
// relevance metrics.
package listing

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// Metric selects the relevance function Rel(S, t) of Section 6.
type Metric int

const (
	// RelMax scores a document by its maximum occurrence probability.
	RelMax Metric = iota
	// RelOR scores a document by Σp_j − Πp_j over its occurrence
	// probabilities (the paper's OR metric, Figure 6).
	RelOR
)

// ErrNoDocuments reports an empty collection.
var ErrNoDocuments = errors.New("listing: empty collection")

// Result is one listed document.
type Result struct {
	// Doc is the document's index in the collection.
	Doc int
	// Rel is the document's relevance under the query metric.
	Rel float64
}

// Index answers uncertain string listing queries over a collection.
type Index struct {
	engine *core.Engine
	docs   []*ustring.String
	trs    []*factor.Transformed
	tauMin float64

	t       []byte
	logp    []float64
	pos     []int32 // local position within the owning document
	docOf   []int32
	anyCorr bool
}

// Build indexes the collection for thresholds τ ≥ tauMin.
func Build(docs []*ustring.String, tauMin float64) (*Index, error) {
	if len(docs) == 0 {
		return nil, ErrNoDocuments
	}
	ix := &Index{docs: docs, tauMin: tauMin}
	maxFactor := 0
	for d, doc := range docs {
		if err := doc.Validate(); err != nil {
			return nil, fmt.Errorf("listing: document %d: %w", d, err)
		}
		tr, err := core.Transform(doc, tauMin)
		if err != nil {
			return nil, fmt.Errorf("listing: document %d: %w", d, err)
		}
		ix.trs = append(ix.trs, tr)
		if tr.MaxFactorLen > maxFactor {
			maxFactor = tr.MaxFactorLen
		}
		if len(doc.Corr) > 0 {
			ix.anyCorr = true
		}
		for x := range tr.T {
			ix.t = append(ix.t, tr.T[x])
			ix.logp = append(ix.logp, tr.LogP[x])
			ix.pos = append(ix.pos, tr.Pos[x]) // -1 at separators
			if tr.Pos[x] < 0 {
				ix.docOf = append(ix.docOf, -1)
			} else {
				ix.docOf = append(ix.docOf, int32(d))
			}
		}
	}
	var corr func(xStart, length int) float64
	if ix.anyCorr {
		corr = ix.corrAdjust
	}
	ix.engine = core.NewEngine(core.EngineConfig{
		T:         ix.t,
		LogP:      ix.logp,
		Pos:       ix.pos,
		Key:       ix.docOf, // dedup by document: one survivor per run per doc
		KeySpace:  len(docs),
		Corr:      corr,
		MaxWindow: maxFactor,
	})
	return ix, nil
}

// corrAdjust applies the owning document's correlations to the window
// starting at global text position xStart.
func (ix *Index) corrAdjust(xStart, length int) float64 {
	d := ix.docOf[xStart]
	if d < 0 {
		return 0
	}
	return core.CorrAdjust(ix.docs[d], ix.t, ix.logp, int(ix.pos[xStart]), xStart, length)
}

// List reports the documents containing p with probability greater than tau
// under the RelMax metric, sorted by document id (Problem 2's output).
func (ix *Index) List(p []byte, tau float64) ([]int, error) {
	res, err := ix.ListRelevance(p, tau, RelMax)
	if err != nil || len(res) == 0 {
		return nil, err
	}
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.Doc
	}
	sort.Ints(out)
	return out, nil
}

// ListRelevance reports qualifying documents with their relevance under the
// chosen metric. RelMax results arrive in decreasing relevance order; RelOR
// results in document order.
func (ix *Index) ListRelevance(p []byte, tau float64, metric Metric) ([]Result, error) {
	if tau < ix.tauMin-prob.Eps {
		return nil, fmt.Errorf("%w (tau=%v, tau_min=%v)", core.ErrTauBelowTauMin, tau, ix.tauMin)
	}
	switch metric {
	case RelMax:
		hits, err := ix.engine.Query(p, tau)
		if err != nil {
			return nil, err
		}
		out := make([]Result, len(hits))
		for i, h := range hits {
			out[i] = Result{Doc: int(h.Key), Rel: h.Prob()}
		}
		return out, nil
	case RelOR:
		return ix.listOR(p, tau)
	default:
		return nil, fmt.Errorf("listing: unknown metric %d", metric)
	}
}

// listOR gathers every occurrence of p, combines per document with the OR
// formula, and filters by tau. Time is proportional to the total number of
// occurrences, per the paper's discussion of complex relevance metrics.
func (ix *Index) listOR(p []byte, tau float64) ([]Result, error) {
	occs, err := ix.Occurrences(p)
	if err != nil {
		return nil, err
	}
	perDoc := map[int][]float64{}
	for _, o := range occs {
		perDoc[o.Doc] = append(perDoc[o.Doc], o.Prob)
	}
	var out []Result
	for d, ps := range perDoc {
		if rel := prob.OrAll(ps); rel > tau+prob.Eps {
			out = append(out, Result{Doc: d, Rel: rel})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Doc < out[b].Doc })
	return out, nil
}

// Occurrence is one distinct (document, position) match of a pattern.
type Occurrence struct {
	Doc  int
	Pos  int
	Prob float64
}

// Occurrences returns every distinct in-document occurrence of p with
// non-zero probability, ordered by (Doc, Pos). It scans the pattern's suffix
// range and deduplicates transformation copies.
func (ix *Index) Occurrences(p []byte) ([]Occurrence, error) {
	if len(p) == 0 {
		return nil, core.ErrEmptyPattern
	}
	for _, c := range p {
		if c == 0 {
			return nil, core.ErrBadPattern
		}
	}
	tx := ix.engine.Text()
	lo, hi, ok := tx.Range(p)
	if !ok {
		return nil, nil
	}
	type key struct{ d, pos int32 }
	seen := map[key]float64{}
	for j := lo; j <= hi; j++ {
		x := int(tx.SA()[j])
		d := ix.docOf[x]
		if d < 0 {
			continue
		}
		lp := ix.engine.WindowLogProb(x, len(p))
		if lp == prob.LogZero {
			continue
		}
		k := key{d, ix.pos[x]}
		if _, dup := seen[k]; !dup {
			seen[k] = lp
		}
	}
	out := make([]Occurrence, 0, len(seen))
	for k, lp := range seen {
		out = append(out, Occurrence{Doc: int(k.d), Pos: int(k.pos), Prob: prob.Exp(lp)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Doc != out[b].Doc {
			return out[a].Doc < out[b].Doc
		}
		return out[a].Pos < out[b].Pos
	})
	return out, nil
}

// NumDocs returns the collection size.
func (ix *Index) NumDocs() int { return len(ix.docs) }

// TauMin returns the construction threshold.
func (ix *Index) TauMin() float64 { return ix.tauMin }

// Space itemises the index memory.
func (ix *Index) Space() core.SpaceBreakdown {
	s := ix.engine.Space()
	s.PosAndKeys += len(ix.docOf) * 4
	return s
}

// Bytes is the total footprint.
func (ix *Index) Bytes() int { return ix.Space().Total() }
