package ingest

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
)

// View is one immutable, generation-stamped snapshot of a live collection.
// Every mutation and every compaction publishes a fresh View (copy-on-write
// pointer swap), so an in-flight query runs entirely against the snapshot it
// started with: it can never observe half of a Put, and compaction never
// blocks it.
//
// A View merges two parts behind one document numbering:
//
//   - base: the sharded collection assembled at the last compaction (or at
//     startup). Documents deleted or replaced since are masked out by the
//     renumbering table (catalog.ExecOpts.Remap) — never returned, never
//     counted.
//   - delta: the documents put since the last compaction, each indexed
//     whole at Put time.
//
// Documents are numbered by the lexicographic rank of their ID among the
// live documents, so a collection reached through any Put/Delete/compaction
// history answers queries bit-identically to a statically built catalog
// over the same final document set (see the equivalence test).
type View struct {
	id         uint64 // process-unique instance id (result-cache key)
	gen        uint64 // mutation generation of the owning collection
	name       string
	tauMin     float64
	spec       core.BackendSpec // index backend of every live document
	docs       int
	positions  int
	indexBytes int      // summed resident footprint of the live indexes
	ids        []string // global document number → external id
	tombstones int

	base     *catalog.Collection
	baseMap  []int // base document → global number, -1 when masked
	delta    *catalog.Collection
	deltaMap []int // delta document → global number
}

// ID returns the snapshot's process-unique instance id. Every published
// View gets a fresh id from the catalog's sequence, which result caches
// fold into their keys — a cached result can therefore never outlive the
// snapshot it was computed against.
func (v *View) ID() uint64 { return v.id }

// Gen returns the owning collection's mutation generation at publish time.
func (v *View) Gen() uint64 { return v.gen }

// Name returns the collection name.
func (v *View) Name() string { return v.name }

// Docs returns the number of live documents.
func (v *View) Docs() int { return v.docs }

// Positions returns the total positions across live documents.
func (v *View) Positions() int { return v.positions }

// TauMin returns the construction threshold of every document index.
func (v *View) TauMin() float64 { return v.tauMin }

// Backend returns the index backend kind of the live documents
// (core.BackendPlain, core.BackendCompressed or core.BackendApprox).
func (v *View) Backend() string { return v.spec.Kind }

// Epsilon returns the approx backend's additive error bound (0 for exact
// backends).
func (v *View) Epsilon() float64 { return v.spec.Epsilon }

// Spec returns the view's full backend spec (kind plus construction
// parameters) — consulted by serving layers for capabilities and folded
// into result-cache keys.
func (v *View) Spec() core.BackendSpec { return v.spec }

// IndexBytes returns the summed resident footprint of the live documents'
// indexes at publish time.
func (v *View) IndexBytes() int { return v.indexBytes }

// Estimate prices a query of patternLen bytes against this snapshot —
// base and delta parts summed — from statistics the view already holds,
// without touching any index. Masked base documents are still priced: the
// structures walk them before the filter drops their hits, so charging for
// them is the honest estimate.
func (v *View) Estimate(patternLen int) core.QueryEstimate {
	var est core.QueryEstimate
	if v.base != nil {
		est = v.base.Estimate(patternLen)
	}
	if v.delta != nil {
		d := v.delta.Estimate(patternLen)
		est.Candidates += d.Candidates
		est.SuffixSteps += d.SuffixSteps
		est.IndexBytes += d.IndexBytes
		est.Units += d.Units
	}
	return est
}

// Shards returns the base collection's fan-out shard count (0 when the view
// has no base part).
func (v *View) Shards() int {
	if v.base == nil {
		return 0
	}
	return v.base.Shards()
}

// DeltaDocs returns how many live documents are served from the delta part.
func (v *View) DeltaDocs() int {
	if v.delta == nil {
		return 0
	}
	return v.delta.Docs()
}

// Tombstones returns how many base documents are masked out (deleted or
// replaced since the last compaction).
func (v *View) Tombstones() int { return v.tombstones }

// DocID returns the external id of global document number doc.
func (v *View) DocID(doc int) (string, bool) {
	if doc < 0 || doc >= len(v.ids) {
		return "", false
	}
	return v.ids[doc], true
}

// DocNumber returns the global document number of an external id.
func (v *View) DocNumber(id string) (int, bool) {
	i := sort.SearchStrings(v.ids, id)
	if i < len(v.ids) && v.ids[i] == id {
		return i, true
	}
	return 0, false
}

// Exec is the single query path of a snapshot, with the signature and the
// semantics of catalog.Collection.Exec: it validates q once — so a view with
// no live documents rejects a malformed query exactly as a static collection
// would — runs it against the base and delta parts, each numbering its hits
// through its own renumbering table (o.Remap belongs to the view and is
// overwritten), and merges the two answers once. Both parts accumulate into
// the same o.Trace stages and the same o.Cost, so "fanout" covers the whole
// snapshot's scatter work. Masking happens inside each part, before any
// merge, so every live document contributes its true top-k and the merged
// top-k is the exact global top-k of the live document set.
func (v *View) Exec(q core.Query, o catalog.ExecOpts) (catalog.Result, error) {
	if err := q.Validate(v.tauMin); err != nil {
		return catalog.Result{}, err
	}
	var res catalog.Result
	var lists [2][]catalog.DocHit
	parts := [2]struct {
		col   *catalog.Collection
		remap []int
	}{{v.base, v.baseMap}, {v.delta, v.deltaMap}}
	for i, part := range parts {
		if part.col == nil {
			continue
		}
		o.Remap = part.remap
		r, err := part.col.Exec(q, o)
		if err != nil {
			return catalog.Result{}, err
		}
		res.Count += r.Count
		lists[i] = r.Hits
	}
	if q.Op == core.OpCount {
		return res, nil
	}
	stop := o.Trace.StartStage("merge")
	if q.Op == core.OpTopK {
		res.Hits = catalog.MergeTopK(o.Cost, q.K, lists[:]...)
	} else {
		res.Hits = append(lists[0], lists[1]...)
		catalog.SortHits(o.Cost, res.Hits)
	}
	stop()
	res.Count = len(res.Hits)
	return res, nil
}

// Search reports every occurrence of p with probability strictly greater
// than tau in any live document, ordered by (document, position).
func (v *View) Search(p []byte, tau float64) ([]catalog.DocHit, error) {
	r, err := v.Exec(core.Query{Op: core.OpSearch, Pattern: p, Tau: tau}, catalog.ExecOpts{})
	return r.Hits, err
}

// TopK reports the k most probable occurrences of p across live documents,
// in decreasing probability order (ties by document, then position).
func (v *View) TopK(p []byte, k int) ([]catalog.DocHit, error) {
	r, err := v.Exec(core.Query{Op: core.OpTopK, Pattern: p, K: k}, catalog.ExecOpts{})
	return r.Hits, err
}

// Count returns the number of occurrences of p with probability strictly
// greater than tau across live documents.
func (v *View) Count(p []byte, tau float64) (int, error) {
	r, err := v.Exec(core.Query{Op: core.OpCount, Pattern: p, Tau: tau}, catalog.ExecOpts{})
	return r.Count, err
}
