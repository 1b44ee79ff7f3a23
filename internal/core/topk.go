package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/prob"
)

// This file extends the index with the query variations the paper lists as
// future work ("variations of the string searching problem satisfying
// diverse query constraints"). All of them fall out of the same recursive
// range-maximum machinery:
//
//   - TopK: the k most probable occurrences, best-first, without a
//     threshold. The recursion that proves O(m + occ) for threshold queries
//     turns into a best-first search over suffix-range fragments with a
//     max-heap, giving O(m + k log k).
//   - Count: the number of occurrences above τ (reported without
//     materialising positions).
//   - Iterate: streaming extraction in decreasing probability order with
//     caller-controlled early termination.

// fragment is a pending suffix-range piece in the best-first search.
type fragment struct {
	l, r int
	j    int     // argmax within [l, r]
	lp   float64 // value at j
}

// fragHeap is a max-heap of fragments ordered by probability. push and pop
// are container/heap's sift steps, typed so a fragment is never boxed; equal
// probabilities therefore leave the heap in container/heap's order. Both
// return the updated heap, so one backed by a caller's array stays on the
// caller's stack.
type fragHeap []fragment

// push adds f.
func (h fragHeap) push(f fragment) fragHeap {
	h = append(h, f)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].lp > h[i].lp) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// pop removes the most probable fragment; h must be non-empty.
func (h fragHeap) pop() (fragment, fragHeap) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].lp > h[j].lp {
			j = j2
		}
		if !(h[j].lp > h[i].lp) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[n], h[:n]
}

// TopK returns the k most probable non-duplicate occurrences of p, in the
// canonical order: decreasing probability, ties by increasing original
// position. The canonical order makes the result a pure function of the
// occurrence set, so every backend (and every shard layout above) reports
// the identical top-k sequence. Only short patterns (m ≤ log N) run
// best-first; longer patterns fall back to a full threshold query at τ→0
// followed by selection.
func (e *Engine) TopK(p []byte, k int) ([]Hit, error) {
	return e.TopKCosted(p, k, nil)
}

// TopKCosted is TopK accumulating cost counters into st (nil records
// nothing).
func (e *Engine) TopKCosted(p []byte, k int, st *QueryStats) ([]Hit, error) {
	if err := e.validate(p, 1); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	lo, hi, ok, probes := e.tx.RangeCount(p)
	st.add(0, int64(probes), int64(probes)*int64(4+len(p)))
	if !ok {
		return nil, nil
	}
	m := len(p)
	if m > e.levels {
		return e.topKLong(p, m, lo, hi, k, st)
	}
	var sm shortMax
	sm.init(e, m, lo, hi)
	var hbuf [32]fragment
	h := fragHeap(hbuf[:0])
	var pushes int64
	push := func(l, r int) {
		if l > r {
			return
		}
		pushes++
		if j, lp := sm.max(l, r); lp != prob.LogZero {
			h = h.push(fragment{l, r, j, lp})
		}
	}
	push(lo, hi)
	// Best-first pops arrive in non-increasing probability order (a
	// sub-fragment's maximum never exceeds its parent's). Gathering every
	// hit tied with the k-th value before cutting makes the boundary
	// deterministic: the final sort breaks probability ties by position, so
	// which tied entry the heap happened to surface first cannot change the
	// reported set. Cost is O((k + ties) log) where ties counts the hits
	// sharing the k-th value exactly — the price of the canonical order
	// cannot be avoided with early termination, because a smaller-position
	// tie can still be hidden inside an unexpanded fragment. Worst case
	// (all occurrences at probability 1, e.g. a fully certain region) this
	// matches a threshold query's O(occ), never more.
	var out []Hit
	for len(h) > 0 {
		if len(out) >= k && h[0].lp != out[k-1].LogProb {
			break
		}
		var f fragment
		f, h = h.pop()
		x := e.tx.SA()[f.j]
		out = append(out, Hit{XPos: x, Orig: e.pos[x], Key: e.key[x], LogProb: f.lp})
		push(f.l, f.j-1)
		push(f.j+1, f.r)
	}
	st.add(pushes, pushes, pushes*plainCandidateBytes)
	sortHitsByProb(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// topKLong selects the k best hits from a scan of the suffix range.
func (e *Engine) topKLong(p []byte, m, lo, hi, k int, st *QueryStats) ([]Hit, error) {
	scanned := int64(hi - lo + 1)
	st.add(scanned, 0, scanned*plainCandidateBytes)
	km := getKeepMax(e.keys)
	e.scanInto(km, m, lo, hi, prob.NewThreshold(0))
	out := topKHits(km.hits, k)
	km.release()
	return out, nil
}

// sortHitsByProb orders hits canonically: decreasing probability, ties by
// increasing original position.
func sortHitsByProb(hs []Hit) { slices.SortFunc(hs, compareHits) }

// compareHits is the canonical order of hits as a comparison function.
func compareHits(a, b Hit) int {
	switch {
	case a.LogProb > b.LogProb:
		return -1
	case a.LogProb < b.LogProb:
		return 1
	}
	return cmp.Compare(a.Orig, b.Orig)
}

// topKHits returns the k best of hs under the canonical order, best first,
// in a fresh slice (nil when hs is empty). A bounded heap keeps the k best
// seen so far with the worst at its root, so a hit that cannot enter costs
// one comparison: O(len(hs) + k log k) against a full sort's
// O(len(hs) log len(hs)).
func topKHits(hs []Hit, k int) []Hit {
	if len(hs) == 0 || k <= 0 {
		return nil
	}
	if len(hs) <= k {
		out := slices.Clone(hs)
		sortHitsByProb(out)
		return out
	}
	h := slices.Clone(hs[:k])
	for i := k/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for _, x := range hs[k:] {
		if compareHits(x, h[0]) < 0 {
			h[0] = x
			siftWorst(h, 0)
		}
	}
	sortHitsByProb(h)
	return h
}

// siftWorst restores, below i, the heap order of topKHits: every hit
// precedes its parent canonically, so the root is the worst hit kept.
func siftWorst(h []Hit, i int) {
	for {
		w := i
		if l := 2*i + 1; l < len(h) && compareHits(h[l], h[w]) > 0 {
			w = l
		}
		if r := 2*i + 2; r < len(h) && compareHits(h[r], h[w]) > 0 {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// keepMax is a query's per-key keep-max table: slot[k] is one more than
// the index in hits of key k's best hit so far, 0 while k has none. A later
// offer replaces a key's hit only on a strictly greater probability, so of
// tied windows the first offered survives — in a scan in suffix-array
// order, the entry the plain engine's duplicate bitmaps keep. Tables are
// pooled; release clears the slots through hits, so a pooled table is all
// zeros.
type keepMax struct {
	slot []int32
	hits []Hit
}

var keepMaxPool = sync.Pool{New: func() any { return new(keepMax) }}

// getKeepMax returns an empty table for keys in [0, keys). keys must be a
// validated bound — the source length of a checked envelope, never a field
// read straight from untrusted bytes.
func getKeepMax(keys int) *keepMax {
	km := keepMaxPool.Get().(*keepMax)
	if len(km.slot) < keys {
		km.slot = make([]int32, keys)
	}
	return km
}

// keep offers hit h for its key, which the caller has checked against the
// table's bound.
func (km *keepMax) keep(h Hit) {
	if s := km.slot[h.Key]; s == 0 {
		km.hits = append(km.hits, h)
		km.slot[h.Key] = int32(len(km.hits))
	} else if h.LogProb > km.hits[s-1].LogProb {
		km.hits[s-1] = h
	}
}

// clone copies the kept hits out of the table (nil when there are none, as
// from a nil table).
func (km *keepMax) clone() []Hit {
	if km == nil || len(km.hits) == 0 {
		return nil
	}
	return slices.Clone(km.hits)
}

// release empties the table and returns it to the pool. A nil table is a
// no-op.
func (km *keepMax) release() {
	if km == nil {
		return
	}
	for _, h := range km.hits {
		km.slot[h.Key] = 0
	}
	km.hits = km.hits[:0]
	keepMaxPool.Put(km)
}

// Count returns the number of non-duplicate occurrences of p with
// probability strictly greater than tau, without materialising them.
func (e *Engine) Count(p []byte, tau float64) (int, error) {
	return e.CountCosted(p, tau, nil)
}

// CountCosted is Count accumulating cost counters into st (nil records
// nothing).
func (e *Engine) CountCosted(p []byte, tau float64, st *QueryStats) (int, error) {
	n := 0
	err := e.iterate(p, tau, func(Hit) bool { n++; return true }, st)
	return n, err
}

// Iterate streams hits in decreasing probability order (for short patterns;
// long patterns arrive unordered) until the callback returns false or the
// probability falls to tau.
func (e *Engine) Iterate(p []byte, tau float64, visit func(Hit) bool) error {
	return e.iterate(p, tau, visit, nil)
}

func (e *Engine) iterate(p []byte, tau float64, visit func(Hit) bool, st *QueryStats) error {
	if err := e.validate(p, tau); err != nil {
		return err
	}
	lo, hi, ok, probes := e.tx.RangeCount(p)
	st.add(0, int64(probes), int64(probes)*int64(4+len(p)))
	if !ok {
		return nil
	}
	m := len(p)
	if m > e.levels {
		// Long patterns: reuse the existing paths, then stream the batch.
		km := e.queryKeepMax(m, lo, hi, tau, st)
		defer km.release()
		for _, h := range km.hits {
			if !visit(h) {
				return nil
			}
		}
		return nil
	}
	// Short patterns: best-first heap gives globally decreasing order with
	// early termination.
	var sm shortMax
	sm.init(e, m, lo, hi)
	thr := prob.NewThreshold(tau)
	var hbuf [32]fragment
	h := fragHeap(hbuf[:0])
	var pushes int64
	push := func(l, r int) {
		if l > r {
			return
		}
		pushes++
		if j, lp := sm.max(l, r); thr.Passes(lp) {
			h = h.push(fragment{l, r, j, lp})
		}
	}
	push(lo, hi)
	for len(h) > 0 {
		var f fragment
		f, h = h.pop()
		x := e.tx.SA()[f.j]
		if !visit(Hit{XPos: x, Orig: e.pos[x], Key: e.key[x], LogProb: f.lp}) {
			break
		}
		push(f.l, f.j-1)
		push(f.j+1, f.r)
	}
	st.add(pushes, pushes, pushes*plainCandidateBytes)
	return nil
}
