package catalog

import (
	"container/heap"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// shardResult carries one shard's hits (or count) back to the merger, plus
// the time the shard spent inside the backend searches and the backend cost
// counters it accumulated. Durations and stats travel back through the join
// rather than into the trace/cost directly, so shard goroutines never touch
// the (unsynchronised) request-level observability state.
type shardResult struct {
	hits  []DocHit
	count int
	dur   time.Duration
	stats core.QueryStats
	err   error
}

// ExecOpts are the per-request extras of Exec; the zero value runs the query
// unobserved.
type ExecOpts struct {
	// Trace, when non-nil, receives the per-stage timings: "fanout" (wall
	// time of the scatter/join), "backend_search" (summed per-shard search
	// time) and "merge".
	Trace *obs.Trace
	// Cost, when non-nil, receives the resource counters: shards touched,
	// backend work, merge comparisons.
	Cost *obs.Cost
}

// Result is the answer of one Exec: the hits of a search or top-k query in
// their canonical order, and the number of occurrences (len(Hits) for search
// and top-k, the count alone for OpCount).
type Result struct {
	Hits  []DocHit
	Count int
}

// Exec is the single query path of a collection. It validates q once against
// the collection's construction threshold — core.ErrEmptyPattern,
// core.ErrBadPattern, core.ErrTauOutOfRange or core.ErrTauBelowTauMin,
// whatever the operation and however many documents the collection holds —
// then runs q against every document, one goroutine per shard, and
// merges per operation: search hits ordered by (document, position), the k
// globally most probable hits in decreasing probability order (ties by
// document, then position), or the summed count. Every per-document index
// guarantees completeness only down to probability TauMin, so a top-k query
// may return fewer than k hits; k ≤ 0 selects nothing.
func (col *Collection) Exec(q core.Query, o ExecOpts) (Result, error) {
	if err := q.Validate(col.tauMin); err != nil {
		return Result{}, err
	}
	if q.Op == core.OpTopK && q.K <= 0 {
		return Result{}, nil
	}
	results, err := col.fanOut(q, o)
	if err != nil {
		return Result{}, err
	}
	if q.Op == core.OpCount {
		total := 0
		for _, r := range results {
			total += r.count
		}
		return Result{Count: total}, nil
	}
	stop := o.Trace.StartStage("merge")
	var merged []DocHit
	if q.Op == core.OpTopK {
		lists := make([][]DocHit, len(results))
		for i, r := range results {
			lists[i] = r.hits
		}
		merged = mergeTopK(o.Cost, q.K, lists...)
	} else {
		for _, r := range results {
			merged = append(merged, r.hits...)
		}
		sortHits(o.Cost, merged)
	}
	stop()
	return Result{Hits: merged, Count: len(merged)}, nil
}

// Search reports every occurrence of p with probability strictly greater
// than tau in any document, ordered by (document, position). tau must
// satisfy TauMin ≤ tau ≤ 1.
func (col *Collection) Search(p []byte, tau float64) ([]DocHit, error) {
	r, err := col.Exec(core.Query{Op: core.OpSearch, Pattern: p, Tau: tau}, ExecOpts{})
	return r.Hits, err
}

// TopK reports the k globally most probable occurrences of p across all
// documents, in decreasing probability order (ties by document, then
// position); fewer than k when fewer reach probability TauMin.
func (col *Collection) TopK(p []byte, k int) ([]DocHit, error) {
	r, err := col.Exec(core.Query{Op: core.OpTopK, Pattern: p, K: k}, ExecOpts{})
	return r.Hits, err
}

// Count returns the total number of occurrences of p with probability
// strictly greater than tau, without materialising positions.
func (col *Collection) Count(p []byte, tau float64) (int, error) {
	r, err := col.Exec(core.Query{Op: core.OpCount, Pattern: p, Tau: tau}, ExecOpts{})
	return r.Count, err
}

// fanOut runs q on every non-empty shard concurrently and returns the
// per-shard results in shard order. Collections are immutable, so the only
// synchronisation is the join. With a non-nil trace it records two stages:
// "fanout" (wall time of the whole scatter/join) and "backend_search" (the
// sum of per-shard search time, i.e. the work the fan-out parallelised).
// With a non-nil cost it counts the shards that ran and sums the per-shard
// backend stats at the join.
func (col *Collection) fanOut(q core.Query, o ExecOpts) ([]shardResult, error) {
	tr, c := o.Trace, o.Cost
	results := make([]shardResult, len(col.shards))
	begin := time.Time{}
	if tr != nil {
		begin = time.Now()
	}
	var wg sync.WaitGroup
	// One closure for the whole query, so that each go statement carries a
	// shard number rather than its own copy of q and o.
	search := func(s int) {
		defer wg.Done()
		if tr != nil {
			t0 := time.Now()
			runShard(q, c != nil, col.shards[s], &results[s])
			results[s].dur = time.Since(t0)
			return
		}
		runShard(q, c != nil, col.shards[s], &results[s])
	}
	touched := int64(0)
	for s := range col.shards {
		if len(col.shards[s]) == 0 {
			continue
		}
		touched++
		wg.Add(1)
		go search(s)
	}
	wg.Wait()
	if tr != nil {
		tr.Add("fanout", time.Since(begin))
		var busy time.Duration
		for s := range results {
			busy += results[s].dur
		}
		tr.Add("backend_search", busy)
	}
	if c != nil {
		c.AddShards(touched)
		for s := range results {
			st := &results[s].stats
			c.AddCandidates(st.Candidates)
			c.AddSuffixSteps(st.SuffixSteps)
			c.AddIndexBytes(st.IndexBytes)
		}
	}
	for s := range results {
		if results[s].err != nil {
			return nil, results[s].err
		}
	}
	return results, nil
}

// runShard executes q against each document of one shard, accumulating
// hits, the count and — when costed — the backend stats into out. It stops
// at the first backend error.
func runShard(q core.Query, costed bool, shard []docIndex, out *shardResult) {
	var st *core.QueryStats
	if costed {
		st = &out.stats
	}
	for _, di := range shard {
		hits, n, err := q.Run(di.ix, st)
		if err != nil {
			out.err = err
			return
		}
		out.count += n
		for _, h := range hits {
			out.hits = append(out.hits, DocHit{Doc: di.doc, Pos: int(h.Orig), Prob: h.Prob()})
		}
	}
}

// sortHits orders hits by (document, position) — the canonical search result
// order — counting the comparisons into c; a nil c takes the raw path with no
// per-comparison counting.
func sortHits(c *obs.Cost, hits []DocHit) {
	less := func(a, b int) bool {
		if hits[a].Doc != hits[b].Doc {
			return hits[a].Doc < hits[b].Doc
		}
		return hits[a].Pos < hits[b].Pos
	}
	if c == nil {
		sort.Slice(hits, less)
		return
	}
	var comps int64
	sort.Slice(hits, func(a, b int) bool { comps++; return less(a, b) })
	c.AddMergeComparisons(comps)
}

// hitLess is the canonical global ordering of top-k results: decreasing
// probability, ties broken by (document, position). It is a total order on
// distinct occurrences, so every shard count produces the identical hit
// sequence.
func hitLess(a, b DocHit) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	if a.Doc != b.Doc {
		return a.Doc < b.Doc
	}
	return a.Pos < b.Pos
}

// topKHeap is a bounded min-heap keeping the k best hits seen so far; the
// root is the currently weakest kept hit. comps counts hitLess evaluations
// for cost attribution (read by mergeTopK after the fold).
type topKHeap struct {
	hits  []DocHit
	comps int64
}

func (h *topKHeap) Len() int           { return len(h.hits) }
func (h *topKHeap) Less(a, b int) bool { h.comps++; return hitLess(h.hits[b], h.hits[a]) }
func (h *topKHeap) Swap(a, b int)      { h.hits[a], h.hits[b] = h.hits[b], h.hits[a] }
func (h *topKHeap) Push(x any)         { h.hits = append(h.hits, x.(DocHit)) }
func (h *topKHeap) Pop() any {
	old := h.hits
	n := len(old)
	x := old[n-1]
	h.hits = old[:n-1]
	return x
}

// mergeTopK folds candidate hit lists into the k globally best hits in
// decreasing probability order (ties by document, then position), through a
// bounded min-heap, counting heap comparisons into c (nil records nothing).
// Each list must already contain the true per-document top-k of every
// document it covers — then the merge is exact.
func mergeTopK(c *obs.Cost, k int, lists ...[]DocHit) []DocHit {
	if k <= 0 {
		return nil
	}
	h := topKHeap{hits: make([]DocHit, 0, k+1)}
	for _, list := range lists {
		for _, dh := range list {
			if len(h.hits) < k {
				heap.Push(&h, dh)
				continue
			}
			h.comps++
			if hitLess(dh, h.hits[0]) {
				h.hits[0] = dh
				heap.Fix(&h, 0)
			}
		}
	}
	out := make([]DocHit, len(h.hits))
	for i := len(h.hits) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(DocHit)
	}
	c.AddMergeComparisons(h.comps)
	return out
}
