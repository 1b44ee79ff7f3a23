// Package factor implements the transformation of a general uncertain string
// into a special uncertain string (Section 5.1, Lemma 2, after Amir et al.):
// given a construction-time threshold τmin, it produces a concatenation of
// deterministic probability-annotated factors such that every deterministic
// substring of S with probability of occurrence at least τmin appears inside
// exactly one factor, at a recoverable original position.
//
// # Construction
//
// A window is a pair (start position, character choices) whose probability of
// occurrence is at least τmin. A window is right-maximal when no character at
// the next position keeps it above τmin, left-maximal when no character at
// the previous position does, and bimaximal when both hold. The factors
// emitted here are exactly the bimaximal windows:
//
//   - Completeness: any substring w with probability ≥ τmin extends greedily
//     to the right until right-maximal, then to the left (left extension
//     preserves right-maximality, since prefixing characters only lowers the
//     probability of any continuation); the result is a bimaximal window
//     containing w at the correct offsets.
//   - Size: the bimaximal windows covering one position are prefix-free on
//     the right of the position and suffix-free on its left, so their
//     probabilities sum to at most 1 on each side independently; at most
//     (1/τmin)² of them cover any position, giving the paper's
//     O((1/τmin)²·n) bound on the transformed length.
//
// The enumeration sweeps left to right maintaining the set of active viable
// windows. Each step extends every active window with every viable character;
// when an extension of the full window fails but a suffix of it remains
// viable, the longest such suffix is spawned as a new active window (this is
// what keeps the sweep linear on long deterministic stretches — suffixes are
// represented implicitly by their longest active cover until they genuinely
// diverge). A window that cannot extend at all dies; it is emitted iff it is
// not left-extendable, which is precisely bimaximality.
//
// The sweep's scratch state is allocated once per Transform and reused at
// every position:
//
//   - One table holds the log viability and the log base probability of
//     every (position, choice). Correlation bounds are folded in by one pass
//     over the correlations, so no logarithm is taken and no correlation is
//     scanned inside the sweep.
//   - The active windows and the next generation are two slices swapped at
//     each position. Windows that die, are superseded by their clones or
//     duplicate a window already in the next generation go on a free list,
//     and later windows reuse their slices.
//   - Dedup is exact on (start, chars). Every window of the next generation
//     ends at the current position, so windows sharing a start share a
//     length. A per-start chain of them is compared byte for byte before a
//     candidate is built; no hash can collide and drop a distinct window.
//   - An emitted factor's characters are copied into one byte arena and its
//     window is recycled. Assembly sorts the emissions and copies them into
//     exactly sized output arrays, so no scratch state is referenced by the
//     result.
package factor

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/prob"
	"repro/internal/ustring"
)

// Separator is the byte placed between factors in the transformed text. It
// must not occur as a character of the uncertain string.
const Separator byte = 0x00

// ErrSeparatorInAlphabet reports an input string using the reserved byte.
var ErrSeparatorInAlphabet = errors.New("factor: input uses the reserved separator byte 0x00")

// ErrBadTau reports a threshold outside (0, 1].
var ErrBadTau = errors.New("factor: tau_min must be in (0, 1]")

// Span records where one factor of the transformed string lives.
type Span struct {
	XStart int   // first character of the factor in T
	XEnd   int   // one past the last character in T
	SStart int32 // original position of the factor's first character in S
}

// Transformed is the special uncertain string X of Lemma 2 plus the position
// transformation array.
type Transformed struct {
	// T is the deterministic text: factor characters separated by Separator.
	T []byte
	// LogP[i] is the log base probability of T[i] at its original position
	// (prob.LogZero at separators).
	LogP []float64
	// Pos[i] is the original position in S of T[i] (-1 at separators). This
	// is the paper's Pos array (Section 5.2).
	Pos []int32
	// SpanOf[i] is the index into Spans of the factor containing T[i]
	// (-1 at separators).
	SpanOf []int32
	// Spans lists the factors in emission order.
	Spans []Span
	// MaxFactorLen is the length of the longest factor.
	MaxFactorLen int
	// TauMin is the construction threshold.
	TauMin float64
	// SourceLen is the number of positions of the original string.
	SourceLen int
}

// window is an active viable window during the sweep. Its slices are
// scratch: when the window dies, is superseded by its clones or duplicates a
// window already in the next generation, it goes back on the sweep's free
// list and a later window reuses its slices.
type window struct {
	start  int       // S position of the first character
	chars  []byte    // chosen characters
	logps  []float64 // per-character log viability probabilities
	prefix []float64 // prefix[i] = Σ logps[:i]; len = len(chars)+1
	total  float64   // prefix[len(chars)]
}

// suffixLog returns the log probability of the suffix starting at offset k.
func (w *window) suffixLog(k int) float64 { return w.total - w.prefix[k] }

// choiceLogs holds the two log probabilities of one (position, choice).
type choiceLogs struct {
	viab float64 // pruning bound: base raised by the choice's pr+ and pr−
	base float64 // prob.Log of the choice's base probability
}

// chainHead is the dedup index entry of one start position: the last window
// of the next generation starting there, valid when stamp is that
// generation's.
type chainHead struct{ stamp, last int }

// emission is one emitted factor: its start in S and its characters in the
// sweep's byte arena.
type emission struct{ start, off, n int }

// sweep is the scratch state of one Transform. Nothing in it outlives the
// call: assemble copies the factors out into exactly sized arrays.
type sweep struct {
	s      *ustring.String
	logTau float64

	first   []int        // first[i] indexes s.Pos[i][0] in logs; len n+1
	logs    []choiceLogs // per (position, choice)
	maxViab []float64    // max viab per position, for the left test

	active, next []*window
	free         []*window
	chain        []int       // chain[x]: previous window in next with next[x]'s start, or -1
	heads        []chainHead // per start position
	extended     [256]bool   // characters at j that some window continues through

	arena   []byte // characters of the emitted factors
	emitted []emission
}

// Transform computes the special uncertain string for s at threshold tauMin.
func Transform(s *ustring.String, tauMin float64) (*Transformed, error) {
	if !(tauMin > 0 && tauMin <= 1) || math.IsNaN(tauMin) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadTau, tauMin)
	}
	for i, pos := range s.Pos {
		for _, c := range pos {
			if c.Char == Separator {
				return nil, fmt.Errorf("%w (position %d)", ErrSeparatorInAlphabet, i)
			}
		}
	}
	sw := newSweep(s, math.Log(tauMin)-prob.Eps)
	for j := range s.Pos {
		sw.step(j)
	}
	// End of string: every active window is right-maximal.
	for _, w := range sw.active {
		sw.emitIfBimaximal(w)
	}
	tr := &Transformed{TauMin: tauMin, SourceLen: s.Len()}
	tr.assemble(sw)
	return tr, nil
}

// newSweep computes the log-probability table. A choice's viability is the
// log of the probability used for window pruning: for correlated characters
// an upper bound (max of base, pr+ and pr−), so that no correlation-boosted
// match can escape the factor set; the engine recomputes exact probabilities
// at query time.
func newSweep(s *ustring.String, logTau float64) *sweep {
	n := s.Len()
	sw := &sweep{
		s:       s,
		logTau:  logTau,
		first:   make([]int, n+1),
		maxViab: make([]float64, n),
		heads:   make([]chainHead, n),
	}
	for i, pos := range s.Pos {
		sw.first[i+1] = sw.first[i] + len(pos)
	}
	// Collect plain viability probabilities first, raised by one pass over
	// the correlations, then take every logarithm once.
	sw.logs = make([]choiceLogs, sw.first[n])
	for i, pos := range s.Pos {
		for ci, c := range pos {
			sw.logs[sw.first[i]+ci].viab = c.Prob
		}
	}
	for _, corr := range s.Corr {
		if corr.At < 0 || corr.At >= n {
			continue
		}
		for ci, c := range s.Pos[corr.At] {
			if c.Char != corr.Char {
				continue
			}
			p := &sw.logs[sw.first[corr.At]+ci].viab
			if corr.ProbWhenPresent > *p {
				*p = corr.ProbWhenPresent
			}
			if corr.ProbWhenAbsent > *p {
				*p = corr.ProbWhenAbsent
			}
		}
	}
	for i, pos := range s.Pos {
		best := prob.LogZero
		row := sw.logs[sw.first[i]:sw.first[i+1]]
		for ci, c := range pos {
			l := &row[ci]
			l.base = prob.Log(c.Prob)
			if l.viab == c.Prob {
				l.viab = l.base
			} else {
				l.viab = prob.Log(l.viab)
			}
			if l.viab > best {
				best = l.viab
			}
		}
		sw.maxViab[i] = best
	}
	return sw
}

// step advances the sweep over position j: every active window ending at
// j−1 is extended, spawns suffixes, or dies, and uncovered characters at j
// start fresh windows.
func (sw *sweep) step(j int) {
	pos := sw.s.Pos[j]
	row := sw.logs[sw.first[j]:sw.first[j+1]]
	for _, c := range pos {
		sw.extended[c.Char] = false
	}
	sw.next, sw.chain = sw.next[:0], sw.chain[:0]
	for _, w := range sw.active {
		// Pass A: characters the full window cannot take — spawn the
		// longest viable suffix continued with the character. Suffix
		// probabilities grow with the start offset, so binary search for
		// the smallest offset that fits. This pass must run before any
		// in-place extension of w below.
		fullExts := 0
		for ci, c := range pos {
			lp := row[ci].viab
			if lp == prob.LogZero {
				continue
			}
			if w.total+lp >= sw.logTau {
				fullExts++
				continue
			}
			k := sw.suffixStart(w, lp)
			if k >= len(w.chars) || k == 0 {
				continue // no proper viable suffix
			}
			sw.extended[c.Char] = true
			if sw.has(j, w.start+k, w.chars[k:], c.Char) {
				continue
			}
			nw := sw.get()
			nw.start = w.start + k
			nw.chars = append(append(nw.chars, w.chars[k:]...), c.Char)
			nw.logps = append(append(nw.logps, w.logps[k:]...), lp)
			nw.prefix = append(nw.prefix, 0)
			for i, l := range nw.logps {
				nw.prefix = append(nw.prefix, nw.prefix[i]+l)
			}
			nw.total = nw.prefix[len(nw.chars)]
			sw.push(j, nw)
		}
		// Pass B: full-window extensions. With a single viable
		// continuation (the overwhelmingly common case on deterministic
		// stretches) the window is extended in place instead of cloned,
		// keeping the sweep linear.
		kept := false
		for ci, c := range pos {
			lp := row[ci].viab
			// Pass A's test, negated: fullExts counts exactly these.
			if lp == prob.LogZero || !(w.total+lp >= sw.logTau) {
				continue
			}
			sw.extended[c.Char] = true
			if sw.has(j, w.start, w.chars, c.Char) {
				continue
			}
			nw := w
			if fullExts > 1 {
				nw = sw.get()
				nw.start = w.start
				nw.chars = append(nw.chars, w.chars...)
				nw.logps = append(nw.logps, w.logps...)
				nw.prefix = append(nw.prefix, w.prefix...)
				nw.total = w.total
			} else {
				kept = true
			}
			nw.chars = append(nw.chars, c.Char)
			nw.logps = append(nw.logps, lp)
			nw.total += lp
			nw.prefix = append(nw.prefix, nw.total)
			sw.push(j, nw)
		}
		if fullExts == 0 {
			sw.emitIfBimaximal(w)
		}
		if !kept {
			sw.free = append(sw.free, w)
		}
	}

	// Fresh single-character windows for characters not covered by any
	// window continuing through j.
	for ci, c := range pos {
		lp := row[ci].viab
		if lp == prob.LogZero || lp < sw.logTau || sw.extended[c.Char] || sw.has(j, j, nil, c.Char) {
			continue
		}
		nw := sw.get()
		nw.start = j
		nw.chars = append(nw.chars, c.Char)
		nw.logps = append(nw.logps, lp)
		nw.prefix = append(nw.prefix, 0, lp)
		nw.total = lp
		sw.push(j, nw)
	}
	sw.active, sw.next = sw.next, sw.active
}

// suffixStart returns the smallest offset k at which w's suffix continued
// with a character of log viability lp stays viable (sort.Search's bisection,
// without its closure).
func (sw *sweep) suffixStart(w *window, lp float64) int {
	lo, hi := 0, len(w.chars)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if !(w.suffixLog(h)+lp >= sw.logTau) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// has reports whether the generation ending at j already holds the window
// (start, chars + c). Windows of one generation that share a start have the
// same length, so the chain for start is compared byte for byte: dedup is
// exact, with no hash to collide.
func (sw *sweep) has(j, start int, chars []byte, c byte) bool {
	h := sw.heads[start]
	if h.stamp != j+1 {
		return false
	}
	for x := h.last; x >= 0; x = sw.chain[x] {
		o := sw.next[x].chars
		if last := len(o) - 1; o[last] == c && bytes.Equal(o[:last], chars) {
			return true
		}
	}
	return false
}

// push appends w to the generation ending at j and links it into the chain
// of its start.
func (sw *sweep) push(j int, w *window) {
	h := &sw.heads[w.start]
	if h.stamp != j+1 {
		*h = chainHead{stamp: j + 1, last: -1}
	}
	sw.chain = append(sw.chain, h.last)
	h.last = len(sw.next)
	sw.next = append(sw.next, w)
}

// get returns an empty window, reusing a freed one when there is one.
func (sw *sweep) get() *window {
	n := len(sw.free)
	if n == 0 {
		return &window{}
	}
	w := sw.free[n-1]
	sw.free = sw.free[:n-1]
	w.chars, w.logps, w.prefix = w.chars[:0], w.logps[:0], w.prefix[:0]
	return w
}

// emitIfBimaximal records w as a factor unless it is left-extendable, in
// which case a longer factor covers it.
func (sw *sweep) emitIfBimaximal(w *window) {
	if w.start > 0 && sw.maxViab[w.start-1]+w.total >= sw.logTau {
		return
	}
	sw.emitted = append(sw.emitted, emission{start: w.start, off: len(sw.arena), n: len(w.chars)})
	sw.arena = append(sw.arena, w.chars...)
}

// assemble lays the emitted factors out into the T / LogP / Pos arrays. The
// recorded per-character probabilities are the *base* probabilities from the
// model (not the viability bounds), so the engine's C array reproduces
// Section 3.2 exactly; correlation corrections are applied by the engine.
func (tr *Transformed) assemble(sw *sweep) {
	chars := func(e emission) []byte { return sw.arena[e.off : e.off+e.n] }
	// Deterministic layout: sort factors by (start, content).
	slices.SortFunc(sw.emitted, func(a, b emission) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return bytes.Compare(chars(a), chars(b))
	})
	total := 0
	for _, e := range sw.emitted {
		total += e.n + 1
	}
	tr.T = make([]byte, total)
	tr.LogP = make([]float64, total)
	tr.Pos = make([]int32, total)
	tr.SpanOf = make([]int32, total)
	tr.Spans = make([]Span, len(sw.emitted))
	x := 0
	for g, e := range sw.emitted {
		tr.MaxFactorLen = max(tr.MaxFactorLen, e.n)
		tr.Spans[g] = Span{XStart: x, XEnd: x + e.n, SStart: int32(e.start)}
		for k, c := range chars(e) {
			i := e.start + k
			tr.T[x] = c
			tr.LogP[x] = sw.baseLog(i, c)
			tr.Pos[x] = int32(i)
			tr.SpanOf[x] = int32(g)
			x++
		}
		// Separator after every factor keeps suffixes of different factors
		// from running into each other.
		tr.T[x] = Separator
		tr.LogP[x] = prob.LogZero
		tr.Pos[x] = -1
		tr.SpanOf[x] = -1
		x++
	}
}

// baseLog returns prob.Log(s.ProbAt(i, c)) from the table: the first choice
// at i carrying c, as ProbAt picks it.
func (sw *sweep) baseLog(i int, c byte) float64 {
	for ci, ch := range sw.s.Pos[i] {
		if ch.Char == c {
			return sw.logs[sw.first[i]+ci].base
		}
	}
	return prob.LogZero
}

// Len returns the length of the transformed text including separators.
func (tr *Transformed) Len() int { return len(tr.T) }

// ExpansionFactor returns |X| / |S|, the practical counterpart of the
// paper's (1/τmin)² bound.
func (tr *Transformed) ExpansionFactor() float64 {
	if tr.SourceLen == 0 {
		return 0
	}
	return float64(len(tr.T)) / float64(tr.SourceLen)
}

// Bytes reports the memory footprint of the transformation output.
func (tr *Transformed) Bytes() int {
	return len(tr.T) + len(tr.LogP)*8 + len(tr.Pos)*4 + len(tr.SpanOf)*4 + len(tr.Spans)*16
}
