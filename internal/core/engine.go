// Package core implements the paper's primary contribution: the probabilistic
// threshold index for substring searching in uncertain strings (Sections 4
// and 5). The shared Engine indexes any probability-annotated deterministic
// text (the transformed special uncertain string of Lemma 2, or a special
// uncertain string directly); Index wraps it with the general-string
// transformation of Section 5.
//
// # Structure (Section 4.2 / 5.2)
//
//   - a suffix array + suffix range search over the deterministic text t;
//   - the global successive multiplicative probability array C, kept as
//     log-domain prefix sums (internal/prob.Prefix);
//   - for every length i = 1..log N, a range-maximum structure RMQ_i over
//     the virtual array Ci[j] = probability of the length-i prefix of the
//     j-th lexicographically smallest suffix. Ci is never materialised: the
//     rmq.Block accessor recomputes entries from C, the suffix array, the
//     duplicate-elimination bitmaps and the correlation adjustments;
//   - per-level duplicate bitmaps marking, inside every depth-i run of the
//     suffix array, all but the best entry per dedup key (original position
//     for substring search, document id for listing);
//   - the blocking scheme for long patterns (m > log N): for every length i
//     up to the longest factor (capped), block maxima of Ci over blocks of
//     size i, each with its own RMQ (Section 4.2 "Long substrings").
//
// Queries answer (p, τ) by recursive range-maximum extraction: repeatedly
// take the highest-probability entry of the suffix range and stop as soon as
// it drops to τ, giving O(m + occ) for short patterns and O(m·occ) for long
// ones.
//
// # Backends
//
// The serving tier consumes indexes through the Backend interface, which
// Index satisfies alongside CompressedIndex — an FM-index-backed
// representation (Section 8.7's compressed suffix array) several-fold
// smaller in resident memory at a bounded query-time cost. Both compute
// window probabilities through identical prob.Prefix arithmetic over the
// identical transformation, so every backend answers bit-identically; see
// backend.go and compressed.go.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/bitset"
	"repro/internal/prob"
	"repro/internal/rmq"
	"repro/internal/suffix"
)

// Errors reported by queries.
var (
	ErrEmptyPattern   = errors.New("core: empty pattern")
	ErrBadPattern     = errors.New("core: pattern contains the reserved separator byte")
	ErrTauOutOfRange  = errors.New("core: tau out of range (0, 1]")
	ErrTauBelowTauMin = errors.New("core: tau below the construction threshold tau_min")
)

// DefaultLongCap bounds the lengths covered by the long-pattern blocking
// scheme. Patterns longer than the cap (and longer than the longest factor)
// fall back to a linear scan of their suffix range; see DESIGN.md for the
// space trade-off against the paper's i = log n..n construction.
const DefaultLongCap = 1024

// EffectiveLongCap normalises a long-pattern cap to the value indexes
// actually use, so "default" (<= 0) and "explicitly the default" compare
// equal.
func EffectiveLongCap(v int) int {
	if v <= 0 {
		return DefaultLongCap
	}
	return v
}

// EngineConfig assembles an Engine from its raw parts.
type EngineConfig struct {
	// T is the deterministic text, with factor separators where applicable.
	T []byte
	// LogP are the per-position log base probabilities (LogZero at
	// separators). len(LogP) == len(T).
	LogP []float64
	// Pos maps text positions to original string positions (-1 at
	// separators). Identity for special uncertain strings.
	Pos []int32
	// Key is the duplicate-elimination key per text position: entries
	// sharing a key inside one depth-i run are duplicates and only the most
	// probable is kept. -1 disables an entry. Substring search uses Pos;
	// listing uses the document id.
	Key []int32
	// KeySpace is an exclusive upper bound on Key values.
	KeySpace int
	// Corr, when non-nil, returns the log-domain correlation adjustment for
	// the window of the given length starting at text position xStart
	// (Section 3.3 / 4.1). It must be pure.
	Corr func(xStart, length int) float64
	// LongCap overrides DefaultLongCap when positive.
	LongCap int
	// MaxWindow is the longest window that can ever be valid (the longest
	// factor); long levels beyond it are pointless. 0 means len(T).
	MaxWindow int
}

// Engine is the threshold index over a probability-annotated text. It holds
// exactly what a query reads — no LCP or inverse suffix array, which only
// construction needs — so an engine built here and one assembled over a
// stored envelope (plain4.go) hold the same structures.
type Engine struct {
	tx   *suffix.Text
	pre  *prob.Prefix
	pos  []int32
	key  []int32
	keys int // exclusive bound on key values, sizing the keep-max tables
	corr func(xStart, length int) float64

	levels int // number of short levels (the paper's log N)
	short  []*rmq.Block
	// dup[i-1] marks level i's duplicates; every level's bits lie in
	// dupWords, level by level, so they persist as one region.
	dup      []*bitset.Set
	dupWords []uint64
	longCap  int

	// Long-pattern blocking: longPB[i-levels-1][b] holds the block maximum
	// of Ci for blocks of size i; longRMQ answers block-range maxima. Every
	// level's maxima lie in longMax, level by level.
	longLo  int // first long length = levels+1
	longHi  int // last long length covered
	longPB  [][]float32
	longMax []float32
	longRMQ []*rmq.Block
}

// NewEngine builds the engine. It is shared by the substring-search index
// (Section 5), the special-string index (Section 4) and the listing index
// (Section 6).
func NewEngine(cfg EngineConfig) *Engine {
	n := len(cfg.T)
	tx, lcp := suffix.NewSearch(cfg.T)
	e := &Engine{
		tx:      tx,
		pre:     prob.NewPrefix(cfg.LogP),
		pos:     cfg.Pos,
		key:     cfg.Key,
		corr:    cfg.Corr,
		longCap: EffectiveLongCap(cfg.LongCap),
	}
	// KeySpace may be 0 to skip the duplicate bitmaps (keys already
	// unique), so the keep-max bound comes from the keys themselves.
	for _, k := range cfg.Key {
		e.keys = max(e.keys, int(k)+1)
	}
	if n == 0 {
		e.longLo = 1 // levels+1; with longHi 0 there are no long levels
		return e
	}
	e.levels, e.longHi = engineLevels(n, cfg.MaxWindow, e.longCap)
	e.longLo = e.levels + 1
	e.dupWords = make([]uint64, e.levels*bitset.Words(n))
	e.longMax = make([]float32, longBlocks(n, e.longLo, e.longHi))
	e.setViews()

	// The per-length structures are independent of each other; build them
	// in parallel. Everything they read (suffix array, LCP, prefix sums,
	// keys) is immutable after the suffix construction above, and each
	// writes its own stretch of dupWords or longMax.
	e.short = make([]*rmq.Block, e.levels)
	workers := runtime.GOMAXPROCS(0)
	if workers > e.levels {
		workers = e.levels
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 1; i <= e.levels; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(level int) {
			defer wg.Done()
			defer func() { <-sem }()
			e.buildDup(level, cfg.KeySpace, lcp)
			e.short[level-1] = rmq.NewBlock(n, func(j int) float64 { return e.ci(level, j) })
		}(i)
	}
	wg.Wait()

	// Long levels: lengths levels+1 .. min(maxWindow, longCap), also
	// independent per length.
	for i := e.longLo; i <= e.longHi; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			pb := e.longPB[i-e.longLo]
			for b := range pb {
				best := prob.LogZero
				for j := b * i; j < min(b*i+i, n); j++ {
					if v := e.rawCi(i, j); v > best {
						best = v
					}
				}
				pb[b] = float32(best)
			}
		}(i)
	}
	wg.Wait()
	e.buildLongRMQ()
	return e
}

// engineLevels returns the number of short levels and the last long
// length of an engine over n > 0 text positions: short levels cover
// lengths 1..⌊log2 n⌋ (at least one), never beyond the longest window, and
// long levels the lengths after them up to min(maxWindow, longCap).
// maxWindow ≤ 0 means n.
func engineLevels(n, maxWindow, longCap int) (levels, longHi int) {
	if maxWindow <= 0 || maxWindow > n {
		maxWindow = n
	}
	levels = max(bits.Len(uint(n))-1, 1)
	return min(levels, maxWindow), min(maxWindow, longCap)
}

// longBlocks is the number of block maxima the long levels lo..hi hold
// over n text positions: ⌈n/i⌉ for each length i.
func longBlocks(n, lo, hi int) int {
	total := 0
	for i := lo; i <= hi; i++ {
		total += (n + i - 1) / i
	}
	return total
}

// setViews cuts the per-level bitmaps and block-maxima slices out of
// dupWords and longMax, whose lengths must fit levels, longLo and longHi.
func (e *Engine) setViews() {
	n := e.tx.Len()
	wpl := bitset.Words(n)
	e.dup = make([]*bitset.Set, e.levels)
	for l := range e.dup {
		// The slice holds exactly wpl words, FromWords' only condition.
		e.dup[l], _ = bitset.FromWords(e.dupWords[l*wpl:(l+1)*wpl:(l+1)*wpl], n)
	}
	e.longPB = nil
	for i, off := e.longLo, 0; i <= e.longHi; i++ {
		nb := (n + i - 1) / i
		e.longPB = append(e.longPB, e.longMax[off:off+nb:off+nb])
		off += nb
	}
}

// buildLongRMQ builds each long level's range-maximum structure over its
// block maxima: one pass over longMax.
func (e *Engine) buildLongRMQ() {
	e.longRMQ = make([]*rmq.Block, len(e.longPB))
	for i, pb := range e.longPB {
		e.longRMQ[i] = rmq.NewBlock(len(pb), func(b int) float64 { return float64(pb[b]) })
	}
}

// rawCi is the Ci value (log probability of the length-i window at the
// suffix-array entry j) including correlation adjustment but ignoring
// duplicate marks.
func (e *Engine) rawCi(i, j int) float64 {
	start := int(e.tx.SA()[j])
	lp := e.pre.Span(start, start+i)
	if lp == prob.LogZero {
		return prob.LogZero
	}
	if e.corr != nil {
		lp += e.corr(start, i)
	}
	return lp
}

// ci is rawCi masked by the level's duplicate bitmap — the accessor the
// short-level RMQs are built over.
func (e *Engine) ci(i, j int) float64 {
	if e.dup[i-1].Get(j) {
		return prob.LogZero
	}
	return e.rawCi(i, j)
}

// buildDup marks duplicates for level i in dup[i-1]: inside every maximal
// run of the suffix array whose adjacent LCP values are ≥ i (one run = the
// suffix range of one length-i string), all entries sharing a dedup key
// except the most probable are marked. Section 5.2 (positions) / Section 6
// (documents).
func (e *Engine) buildDup(i, keySpace int, lcp []int32) {
	n := e.tx.Len()
	dup := e.dup[i-1]
	if keySpace <= 0 {
		return
	}
	// stamp[k] = run id when key k was last seen; bestAt[k] = entry index of
	// the best value seen for key k in the current run.
	stamp := make([]int32, keySpace)
	bestAt := make([]int32, keySpace)
	bestVal := make([]float64, keySpace)
	for k := range stamp {
		stamp[k] = -1
	}
	runID := int32(0)
	for j := 0; j < n; j++ {
		if j > 0 && int(lcp[j]) < i {
			runID++
		}
		v := e.rawCi(i, j)
		if v == prob.LogZero {
			continue // never reportable; no need to dedup
		}
		k := e.key[e.tx.SA()[j]]
		if k < 0 {
			continue
		}
		if stamp[k] != runID {
			stamp[k] = runID
			bestAt[k] = int32(j)
			bestVal[k] = v
			continue
		}
		if v > bestVal[k] {
			dup.Set(int(bestAt[k]))
			bestAt[k] = int32(j)
			bestVal[k] = v
		} else {
			dup.Set(j)
		}
	}
}

// Hit is one reported entry of a query.
type Hit struct {
	// XPos is the text position of the window.
	XPos int32
	// Orig is the original string position (Pos[XPos]).
	Orig int32
	// Key is the dedup key of the entry.
	Key int32
	// LogProb is the corrected log probability of the window.
	LogProb float64
}

// Prob returns the plain-domain probability of the hit.
func (h Hit) Prob() float64 { return prob.Exp(h.LogProb) }

// ValidateQuery reports the error a query with the given pattern and
// threshold would return, without running it: ErrEmptyPattern, ErrBadPattern,
// ErrTauOutOfRange, or ErrTauBelowTauMin when tau < tauMin. Serving layers
// use it to reject malformed requests before fanning out across shards.
func ValidateQuery(p []byte, tau, tauMin float64) error {
	if len(p) == 0 {
		return ErrEmptyPattern
	}
	for _, c := range p {
		if c == 0 {
			return ErrBadPattern
		}
	}
	if math.IsNaN(tau) || tau <= 0 || tau > 1 {
		return fmt.Errorf("%w (got %v)", ErrTauOutOfRange, tau)
	}
	if tau < tauMin-prob.Eps {
		return fmt.Errorf("%w (tau=%v, tau_min=%v)", ErrTauBelowTauMin, tau, tauMin)
	}
	return nil
}

// validate rejects malformed queries.
func (e *Engine) validate(p []byte, tau float64) error {
	return ValidateQuery(p, tau, 0)
}

// Query reports every non-duplicate window matching p with probability
// strictly greater than tau, in decreasing probability order.
func (e *Engine) Query(p []byte, tau float64) ([]Hit, error) {
	return e.QueryCosted(p, tau, nil)
}

// QueryCosted is Query accumulating cost counters into st (nil records
// nothing).
func (e *Engine) QueryCosted(p []byte, tau float64, st *QueryStats) ([]Hit, error) {
	if err := e.validate(p, tau); err != nil {
		return nil, err
	}
	lo, hi, ok, probes := e.tx.RangeCount(p)
	st.add(0, int64(probes), int64(probes)*int64(4+len(p)))
	if !ok {
		return nil, nil
	}
	m := len(p)
	if m > e.levels {
		km := e.queryKeepMax(m, lo, hi, tau, st)
		hits := km.clone()
		km.release()
		return hits, nil
	}
	var hits []Hit
	e.queryShort(m, lo, hi, tau, func(j int, lp float64) {
		x := e.tx.SA()[j]
		hits = append(hits, Hit{XPos: x, Orig: e.pos[x], Key: e.key[x], LogProb: lp})
	}, st)
	return hits, nil
}

// queryKeepMax answers a pattern longer than the short levels into a
// keep-max table: by the blocking scheme where a level covers m, by a
// straight scan beyond. The caller releases the table.
func (e *Engine) queryKeepMax(m, lo, hi int, tau float64, st *QueryStats) *keepMax {
	km := getKeepMax(e.keys)
	if m <= e.longHi {
		e.queryLong(km, m, lo, hi, tau, st)
	} else {
		e.scanInto(km, m, lo, hi, prob.NewThreshold(tau))
		scanned := int64(hi - lo + 1)
		st.add(scanned, 0, scanned*plainCandidateBytes)
	}
	return km
}

// scanInto offers every entry of the suffix-array rows [l, r] whose
// length-m window passes thr to km, keyed by its dedup key.
func (e *Engine) scanInto(km *keepMax, m, l, r int, thr prob.Threshold) {
	for j := l; j <= r; j++ {
		lp := e.rawCi(m, j)
		if !thr.Passes(lp) {
			continue
		}
		x := e.tx.SA()[j]
		// A live window never starts at a keyless (separator) position.
		if k := e.key[x]; uint(k) < uint(e.keys) {
			km.keep(Hit{XPos: x, Orig: e.pos[x], Key: k, LogProb: lp})
		}
	}
}

// queryShort is the optimal O(m + occ) recursive range-maximum extraction of
// Section 4.2 (Algorithm 2). The recursion is managed on an explicit stack:
// its depth equals the number of reported entries.
func (e *Engine) queryShort(m, lo, hi int, tau float64, report func(j int, lp float64), st *QueryStats) {
	var sm shortMax
	sm.init(e, m, lo, hi)
	thr := prob.NewThreshold(tau)
	type span struct{ l, r int }
	var sbuf [32]span
	stack := append(sbuf[:0], span{lo, hi})
	var pops int64
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.l > s.r {
			continue
		}
		pops++
		j, lp := sm.max(s.l, s.r)
		if !thr.Passes(lp) {
			continue
		}
		report(j, lp)
		stack = append(stack, span{s.l, j - 1}, span{j + 1, s.r})
	}
	st.add(pops, pops, pops*plainCandidateBytes)
}

// shortMax is the range-maximum step of one short-pattern extraction over
// the suffix range [lo, hi] at length m: max(l, r) returns the leftmost
// argmax j of Ci over [l, r] ⊆ [lo, hi] and its value ci(m, j). A range
// inside at most two RMQ blocks is exactly what rmq.Block.Max answers by a
// leftmost linear scan through the accessor, on every pop; such a range is
// scored once into vals instead and every pop scans the stored values.
// Wider ranges go to the level's RMQ. The struct lives on the query's
// stack, so it needs no pool.
type shortMax struct {
	e     *Engine
	m, lo int
	level *rmq.Block
	n     int // vals[:n] = ci(m, lo+k); 0 when the RMQ answers
	vals  [2 * rmq.BlockSize]float64
}

// init prepares sm for the range [lo, hi] of a length-m pattern.
func (sm *shortMax) init(e *Engine, m, lo, hi int) {
	sm.e, sm.m, sm.lo, sm.level = e, m, lo, e.short[m-1]
	if lo/rmq.BlockSize+1 < hi/rmq.BlockSize {
		return
	}
	sm.n = hi - lo + 1
	for k := range sm.vals[:sm.n] {
		sm.vals[k] = e.ci(m, lo+k)
	}
}

// max returns the leftmost position of the maximum of Ci over [l, r] and
// that maximum.
func (sm *shortMax) max(l, r int) (int, float64) {
	if sm.n == 0 {
		j := sm.level.Max(l, r)
		return j, sm.e.ci(sm.m, j)
	}
	vs := sm.vals[l-sm.lo : r-sm.lo+1]
	best, bv := 0, vs[0]
	for k, v := range vs {
		if v > bv {
			best, bv = k, v
		}
	}
	return l + best, bv
}

// queryLong is the O(m·occ) blocking scheme of Section 4.2: recursive
// range-maximum over block maxima; every qualifying block is scanned in
// full. Partial boundary blocks are scanned directly. Duplicate keys are
// eliminated in km (the bitmaps only cover short levels).
func (e *Engine) queryLong(km *keepMax, m, lo, hi int, tau float64, st *QueryStats) {
	idx := m - e.longLo
	blockRMQ := e.longRMQ[idx]
	pb := e.longPB[idx]
	// float32 storage of the block maxima loses precision; widen the
	// threshold test by a hair and re-verify entries exactly.
	logTau := math.Log(tau)
	const f32Slack = 1e-4
	thr := prob.NewThreshold(tau)

	var scanned, blockPops int64
	scanEntries := func(l, r int) {
		scanned += int64(max(r-l+1, 0))
		e.scanInto(km, m, l, r, thr)
	}

	bFirst := lo / m
	bLast := hi / m
	if bFirst == bLast || bFirst+1 > bLast-1 {
		// Range inside at most two blocks: scan it.
		scanEntries(lo, hi)
	} else {
		scanEntries(lo, (bFirst+1)*m-1)
		scanEntries(bLast*m, hi)
		type span struct{ l, r int }
		stack := []span{{bFirst + 1, bLast - 1}}
		n := e.tx.Len()
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s.l > s.r {
				continue
			}
			blockPops++
			b := blockRMQ.Max(s.l, s.r)
			if float64(pb[b]) <= logTau-f32Slack {
				continue
			}
			blo := b * m
			bhi := blo + m - 1
			if bhi >= n {
				bhi = n - 1
			}
			scanEntries(blo, bhi)
			stack = append(stack, span{s.l, b - 1}, span{b + 1, s.r})
		}
	}
	st.add(scanned, blockPops, scanned*plainCandidateBytes+blockPops*plainBlockBytes)
}

// Text exposes the underlying suffix structure (used by the listing index
// for relevance metrics needing full occurrence sets).
func (e *Engine) Text() *suffix.Text { return e.tx }

// WindowLogProb returns the corrected log probability of the length-m window
// at text position x.
func (e *Engine) WindowLogProb(x, m int) float64 {
	lp := e.pre.Span(x, x+m)
	if lp == prob.LogZero {
		return prob.LogZero
	}
	if e.corr != nil {
		lp += e.corr(x, m)
	}
	return lp
}

// ShortLevels returns the number of optimal-time levels (the paper's log N).
func (e *Engine) ShortLevels() int { return e.levels }

// LongLevels returns the range of lengths covered by the blocking scheme.
func (e *Engine) LongLevels() (lo, hi int) { return e.longLo, e.longHi }

// SpaceBreakdown itemises the index memory, the Figure 9(c) accounting.
type SpaceBreakdown struct {
	TextAndSA   int // deterministic text + suffix array and its directory
	ProbArray   int // global C array (+ per-position log probabilities, when held)
	PosAndKeys  int // Pos + dedup keys
	ShortLevels int // RMQ_1..RMQ_logN + duplicate bitmaps
	LongLevels  int // block maxima + their RMQs
}

// Total sums the breakdown.
func (s SpaceBreakdown) Total() int {
	return s.TextAndSA + s.ProbArray + s.PosAndKeys + s.ShortLevels + s.LongLevels
}

// Space reports the memory footprint by component. Keys that alias Pos —
// the substring indexes' — are counted once.
func (e *Engine) Space() SpaceBreakdown {
	var s SpaceBreakdown
	s.TextAndSA = e.tx.Bytes()
	s.ProbArray = e.pre.Bytes()
	s.PosAndKeys = len(e.pos) * 4
	if len(e.key) > 0 && (len(e.pos) == 0 || &e.key[0] != &e.pos[0]) {
		s.PosAndKeys += len(e.key) * 4
	}
	for i := range e.short {
		s.ShortLevels += e.short[i].Bytes() + e.dup[i].Bytes()
	}
	for i := range e.longPB {
		s.LongLevels += len(e.longPB[i])*4 + e.longRMQ[i].Bytes()
	}
	return s
}
