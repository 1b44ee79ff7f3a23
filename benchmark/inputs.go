package main

// Generated inputs and their oracle. Everything the serving stack sees is
// derived from the seed here: the corpus, the query pool and — computed with
// the index-free online matcher, never with an index — the expected answer
// of every pool query.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/ustring"
)

const (
	tauMin  = 0.1
	theta   = 0.3
	epsilon = 0.05 // the approx collection's additive error bound
	topK    = 10
	// probTol absorbs the difference between the oracle's direct product and
	// the indexes' log-domain prefix sums when top-k probabilities are
	// compared; positions are always compared exactly.
	probTol       = 1e-9
	boundarySlack = 1e-6
)

var (
	patternLens = []int{2, 3, 4, 6, 8, 12, 16, 24}
	taus        = []float64{0.10, 0.12, 0.2, 0.4, 0.7}
)

// scale sizes one run. The committed numbers all use fullScale; the smoke
// test shrinks every dimension so `go test` stays fast.
type scale struct {
	docs, docLen int // corpus: docs documents of docLen positions
	pool         int // query tuples
	hot          int // hot-set tuples per collection (open-hotkey)
	churnIDs     int // rotating document ids of the ingest-churn writer
	ladderPasses map[string]int
	microCalls   int // calls per primitive micro measurement
	listingN     int // positions of the listing-index corpus
}

var fullScale = scale{
	docs: 128, docLen: 1200, pool: 512, hot: 16, churnIDs: 256,
	// Whole passes over the pool, so every rung times the same queries. The
	// compressed backend spends ≈1 ms per query, hence fewer passes.
	ladderPasses: map[string]int{"plain": 4, "compressed": 2, "approx": 4},
	microCalls:   2000,
	listingN:     4000,
}

type opKind uint8

const (
	opSearch opKind = iota
	opTopK
	opCount
)

// Bands: short is the shortest pattern length alone — candidate-heavy, two
// orders of magnitude dearer than the rest on the compressed backend; were
// m = 3 included, the band's median would sit on the cliff between the two —
// and long is m ≥ 12, bound by the suffix-range search, with hardly a hit.
const (
	bandMid uint8 = iota
	bandShort
	bandLong
)

// tuple is one pool query.
type tuple struct {
	pattern []byte
	tau     float64
	op      opKind
	band    uint8
	// rank counts the tuples of the same pattern length generated before
	// this one; the open-loop workload's hot set is the lowest ranks.
	rank int
}

// effectiveOp is the operation actually sent to a collection: top-k is never
// sent to an approx collection (its backend rejects it by contract), the
// tuple is sent as a threshold search instead.
func (t *tuple) effectiveOp(approx bool) opKind {
	if approx && t.op == opTopK {
		return opSearch
	}
	return t.op
}

// path renders the HTTP request target of the tuple against a collection.
func (t *tuple) path(collection string, approx bool) string {
	switch t.effectiveOp(approx) {
	case opTopK:
		return fmt.Sprintf("/v1/topk?collection=%s&p=%s&k=%d", collection, t.pattern, topK)
	case opCount:
		return fmt.Sprintf("/v1/count?collection=%s&p=%s&tau=%g", collection, t.pattern, t.tau)
	}
	return fmt.Sprintf("/v1/query?collection=%s&p=%s&tau=%g", collection, t.pattern, t.tau)
}

// hit is one occurrence as replies and the oracle report it.
type hit struct {
	doc, pos int
	prob     float64
}

// truth is the oracle's answer to one tuple.
type truth struct {
	at    []hit // occurrences with probability > tau, in (doc, pos) order
	loose []hit // occurrences with probability > tau−ε: the approx upper bound
	// ranked holds every occurrence above tauMin with its probability in
	// (doc, pos) order, and kth the probability of the topK-th best of
	// them. Filled for top-k tuples only.
	ranked []hit
	kth    float64
}

// inputs is everything one run derives from its seed.
type inputs struct {
	docs  []*ustring.String
	pool  []tuple
	truth []truth
	loose bool // truth carries the τ−ε sets
	probe int  // the pool tuple a re-opened index answers first, see probeOf
}

func genDoc(seed int64, i, n int) *ustring.String {
	return gen.Single(gen.Config{N: n, Theta: theta, Seed: seed<<20 + int64(i)})
}

func genCorpus(seed int64, sc scale) []*ustring.String {
	docs := make([]*ustring.String, sc.docs)
	for i := range docs {
		docs[i] = genDoc(seed, i, sc.docLen)
	}
	return docs
}

// genPool draws the query pool. The mix is stratified rather than sampled —
// every pattern length, every tau and the 70/15/15 split of search, top-k
// and count get exactly their share, in a seeded order — so that two seeds
// differ in their patterns, not in how many expensive short ones they drew.
func genPool(seed int64, docs []*ustring.String, sc scale) []tuple {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perLen := (sc.pool + len(patternLens) - 1) / len(patternLens)
	byLen := make([][][]byte, len(patternLens))
	for l, m := range patternLens {
		byLen[l] = gen.CollectionPatterns(docs, perLen, m, seed+int64(m))
	}
	pool := make([]tuple, sc.pool)
	for i := range pool {
		l := i % len(patternLens)
		j := i / len(patternLens)
		m := patternLens[l]
		t := tuple{pattern: byLen[l][j], tau: taus[j%len(taus)], rank: j}
		// Twenty consecutive ranks hold 14 searches, 3 top-ks and 3 counts,
		// spread out so that even a handful of ranks has all three.
		switch x := (j*7 + 19) % 20; {
		case x < 14:
			t.op = opSearch
		case x < 17:
			t.op = opTopK
		default:
			t.op = opCount
		}
		switch {
		case m == patternLens[0]:
			t.band = bandShort
		case m >= 12:
			t.band = bandLong
		}
		pool[i] = t
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// matchAll runs the online matcher over docs in document order.
func matchAll(docs []*ustring.String, p []byte, tau float64) []hit {
	var out []hit
	for d, doc := range docs {
		for _, pos := range baseline.MatchDP(doc, p, tau) {
			out = append(out, hit{doc: d, pos: pos})
		}
	}
	return out
}

// oracle answers one tuple over docs. withLoose adds the τ−ε set the approx
// containment rule needs.
func oracle(docs []*ustring.String, t tuple, withLoose bool) truth {
	var tr truth
	tr.at = matchAll(docs, t.pattern, t.tau)
	if withLoose {
		// An occurrence whose probability equals τ−ε up to rounding may fall
		// on either side of the ε-index's cut; boundarySlack admits it.
		tr.loose = matchAll(docs, t.pattern, t.tau-epsilon-boundarySlack)
	}
	if t.op == opTopK {
		tr.ranked = matchAll(docs, t.pattern, tauMin)
		probs := make([]float64, len(tr.ranked))
		for i := range tr.ranked {
			h := &tr.ranked[i]
			h.prob = docs[h.doc].OccurrenceProb(t.pattern, h.pos)
			probs[i] = h.prob
		}
		if len(probs) >= topK {
			sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
			tr.kth = probs[topK-1]
		}
	}
	return tr
}

func makeInputs(seed int64, sc scale, withLoose bool) *inputs {
	in := &inputs{docs: genCorpus(seed, sc), loose: withLoose}
	in.pool = genPool(seed, in.docs, sc)
	in.truth = oracleAll(in.docs, in.pool, withLoose)
	in.probe = probeOf(in.pool, in.truth)
	return in
}

// probeOf picks the pool tuple a re-opened index answers first: a search of
// the long band, whose cost depends least on the pattern (a mid-band search
// takes 0.2 to 0.9 ms on freshly mapped pages, as much again as the open it
// follows), and, where the oracle's answers are at hand, one with an
// occurrence to find.
func probeOf(pool []tuple, truth []truth) int {
	first := -1
	for i := range pool {
		if pool[i].band != bandLong || pool[i].op != opSearch {
			continue
		}
		if first < 0 {
			first = i
		}
		if truth != nil && len(truth[i].at) > 0 {
			return i
		}
	}
	return max(first, 0)
}

func oracleAll(docs []*ustring.String, pool []tuple, withLoose bool) []truth {
	out := make([]truth, len(pool))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += 2 {
				out[i] = oracle(docs, pool[i], withLoose)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// check verifies one reply against the oracle. Exact collections must
// reproduce the occurrence positions one for one; approx collections must
// report a sorted set ⊇ exact@τ and ⊆ exact@(τ−ε).
func (tr *truth) check(t *tuple, approx bool, count int, hits []hit) bool {
	switch t.effectiveOp(approx) {
	case opCount:
		if approx {
			return count >= len(tr.at) && count <= len(tr.loose)
		}
		return count == len(tr.at)
	case opTopK:
		return count == len(hits) && tr.checkTopK(hits)
	}
	if count != len(hits) {
		return false
	}
	if approx {
		return sortedByPos(hits) && subset(tr.at, hits) && subset(hits, tr.loose)
	}
	return samePositions(hits, tr.at)
}

func samePositions(a, b []hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].doc != b[i].doc || a[i].pos != b[i].pos {
			return false
		}
	}
	return true
}

func lessPos(a, b hit) bool { return a.doc < b.doc || (a.doc == b.doc && a.pos < b.pos) }

func sortedByPos(h []hit) bool {
	for i := 1; i < len(h); i++ {
		if !lessPos(h[i-1], h[i]) {
			return false
		}
	}
	return true
}

// subset reports whether every position of a occurs in b; both are in
// (doc, pos) order.
func subset(a, b []hit) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && lessPos(b[j], x) {
			j++
		}
		if j == len(b) || b[j].doc != x.doc || b[j].pos != x.pos {
			return false
		}
	}
	return true
}

// checkTopK accepts any k occurrences that are each a true occurrence with
// its true probability, arrive in decreasing probability order, and are all
// at least as probable as the k-th best — so a tie at the cut may resolve
// either way without a false alarm.
func (tr *truth) checkTopK(hits []hit) bool {
	want := len(tr.ranked)
	if want > topK {
		want = topK
	}
	if len(hits) != want {
		return false
	}
	for i, h := range hits {
		j := sort.Search(len(tr.ranked), func(j int) bool { return !lessPos(tr.ranked[j], h) })
		if j == len(tr.ranked) || tr.ranked[j].doc != h.doc || tr.ranked[j].pos != h.pos {
			return false
		}
		if math.Abs(tr.ranked[j].prob-h.prob) > probTol || h.prob < tr.kth-probTol {
			return false
		}
		if i > 0 && h.prob > hits[i-1].prob+probTol {
			return false
		}
		for _, earlier := range hits[:i] {
			if earlier.doc == h.doc && earlier.pos == h.pos {
				return false
			}
		}
	}
	return true
}
