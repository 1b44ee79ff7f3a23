// Package ustring defines the character-level uncertain string model of the
// paper (Section 3): a string is a sequence of positions, each holding a
// probability distribution over characters, optionally with correlations
// between (position, character) pairs (Section 3.3).
//
// The package also provides the possible-world semantics (Section 1,
// Figure 1) as an enumeration oracle used heavily by the test suites, and a
// direct probability-of-occurrence computation (Section 3.2) that serves as
// the ground truth the indexes are verified against.
package ustring

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/prob"
)

// Choice is one probable character at a position.
type Choice struct {
	Char byte
	Prob float64
}

// Position is the pdf of one position of an uncertain string: a set of
// (character, probability) pairs. Probabilities at a position must sum to 1
// (Section 3.1); Validate enforces this up to floating point tolerance.
type Position []Choice

// String is an uncertain string: a sequence of positions plus optional
// correlations. The zero value is an empty string.
type String struct {
	Pos []Position
	// Corr lists the correlations among positions. Correlations are sparse:
	// most applications have none or a handful (Section 3.3).
	Corr []Correlation
}

// Correlation declares that character Char at position At is correlated with
// character DepChar at position DepAt: when the generated world contains
// DepChar at DepAt the probability of Char is ProbWhenPresent, otherwise
// ProbWhenAbsent (the paper's pr+ / pr−).
type Correlation struct {
	At      int
	Char    byte
	DepAt   int
	DepChar byte
	// ProbWhenPresent is pr(c)+, ProbWhenAbsent is pr(c)−.
	ProbWhenPresent float64
	ProbWhenAbsent  float64
}

// Errors returned by Validate.
var (
	ErrEmptyPosition   = errors.New("ustring: position with no choices")
	ErrBadProbability  = errors.New("ustring: probability out of range")
	ErrNotNormalized   = errors.New("ustring: position probabilities do not sum to 1")
	ErrDuplicateChoice = errors.New("ustring: duplicate character at position")
	ErrBadCorrelation  = errors.New("ustring: malformed correlation")
)

// normTolerance is the allowed deviation of a position's probability mass
// from 1. Generators emit exact divisions, so the slack is for accumulated
// float error only.
const normTolerance = 1e-6

// Len returns the number of positions (the paper's n — positions, not
// characters).
func (s *String) Len() int { return len(s.Pos) }

// Validate checks the structural invariants of the model: every position is
// non-empty, has unique characters, valid probabilities summing to one, and
// every correlation refers to characters that exist with probabilities in
// range, at most one per (position, character).
func (s *String) Validate() error {
	var seen [256]bool
	for i, pos := range s.Pos {
		if len(pos) == 0 {
			return fmt.Errorf("%w (position %d)", ErrEmptyPosition, i)
		}
		for _, c := range pos {
			seen[c.Char] = false
		}
		sum := 0.0
		for _, c := range pos {
			if !prob.Valid(c.Prob) {
				return fmt.Errorf("%w (position %d, char %q, p=%v)", ErrBadProbability, i, c.Char, c.Prob)
			}
			if seen[c.Char] {
				return fmt.Errorf("%w (position %d, char %q)", ErrDuplicateChoice, i, c.Char)
			}
			seen[c.Char] = true
			sum += c.Prob
		}
		if sum < 1-normTolerance || sum > 1+normTolerance {
			return fmt.Errorf("%w (position %d sums to %v)", ErrNotNormalized, i, sum)
		}
	}
	var governed map[int]int // At·256 + Char → first correlation entry
	if len(s.Corr) > 0 {
		governed = make(map[int]int, len(s.Corr))
	}
	for k, c := range s.Corr {
		if c.At < 0 || c.At >= s.Len() || c.DepAt < 0 || c.DepAt >= s.Len() || c.At == c.DepAt {
			return fmt.Errorf("%w (entry %d: positions)", ErrBadCorrelation, k)
		}
		if s.ProbAt(c.At, c.Char) < 0 || s.ProbAt(c.DepAt, c.DepChar) < 0 {
			return fmt.Errorf("%w (entry %d: unknown characters)", ErrBadCorrelation, k)
		}
		if !prob.Valid(c.ProbWhenPresent) || !prob.Valid(c.ProbWhenAbsent) {
			return fmt.Errorf("%w (entry %d: probabilities)", ErrBadCorrelation, k)
		}
		key := c.At<<8 | int(c.Char)
		if first, dup := governed[key]; dup {
			return fmt.Errorf("%w (entry %d: position %d char %q already governed by entry %d)",
				ErrBadCorrelation, k, c.At, c.Char, first)
		}
		governed[key] = k
	}
	return nil
}

// ProbAt returns the probability of char at position i, or -1 when the
// character is not a choice there. This is the *base* (uncorrelated)
// probability; correlated characters store pr+ here, per the paper's
// Section 4.1 convention.
func (s *String) ProbAt(i int, char byte) float64 {
	if i < 0 || i >= len(s.Pos) {
		return -1
	}
	for _, c := range s.Pos[i] {
		if c.Char == char {
			return c.Prob
		}
	}
	return -1
}

// corrFor returns the correlation governing char at position i, if any.
// The model allows at most one correlation per (position, char).
func (s *String) corrFor(i int, char byte) (Correlation, bool) {
	for _, c := range s.Corr {
		if c.At == i && c.Char == char {
			return c, true
		}
	}
	return Correlation{}, false
}

// OccurrenceProb returns the probability that the deterministic pattern p
// occurs at position start (Section 3.2), handling correlations per
// Section 3.3: when the correlated partner position falls inside the matched
// window the conditional probability pr+ or pr− applies depending on whether
// the window contains the partner character; when it falls outside, the
// expectation pr(dep)·pr+ + (1−pr(dep))·pr− applies.
func (s *String) OccurrenceProb(p []byte, start int) float64 {
	m := len(p)
	if m == 0 || start < 0 || start+m > s.Len() {
		return 0
	}
	logp := 0.0
	for k := 0; k < m; k++ {
		i := start + k
		base := s.ProbAt(i, p[k])
		if base < 0 {
			return 0
		}
		pk := base
		if corr, ok := s.corrFor(i, p[k]); ok {
			if corr.DepAt >= start && corr.DepAt < start+m {
				// Case 1: the partner position is inside the window; the
				// window fixes its character.
				if p[corr.DepAt-start] == corr.DepChar {
					pk = corr.ProbWhenPresent
				} else {
					pk = corr.ProbWhenAbsent
				}
			} else {
				// Case 2: partner outside the window; marginalise.
				dp := s.ProbAt(corr.DepAt, corr.DepChar)
				if dp < 0 {
					dp = 0
				}
				pk = dp*corr.ProbWhenPresent + (1-dp)*corr.ProbWhenAbsent
			}
		}
		if pk <= 0 {
			return 0
		}
		logp += prob.Log(pk)
	}
	return prob.Exp(logp)
}

// MatchPositions returns every position where p occurs with probability
// strictly greater than tau, in increasing order. It is the quadratic
// reference oracle (scan × direct probability) used by tests; the indexes
// must return exactly this set. The comparison uses the same Eps-banded
// log-domain test as the indexes (prob.Greater), so probabilities landing
// exactly on the threshold are classified identically on both sides.
func (s *String) MatchPositions(p []byte, tau float64) []int {
	var out []int
	for i := 0; i+len(p) <= s.Len(); i++ {
		if prob.Greater(prob.Log(s.OccurrenceProb(p, i)), tau) {
			out = append(out, i)
		}
	}
	return out
}

// World is one possible world of an uncertain string: a concrete
// deterministic string with its probability of occurrence.
type World struct {
	Str  string
	Prob float64
}

// Worlds enumerates all possible worlds (Figure 1(b)) with probability
// greater than minProb. The number of worlds is exponential in Len;
// callers cap the explosion with limit (0 means no limit). Worlds are
// returned sorted by decreasing probability, ties broken lexicographically.
//
// Correlations are honoured with Case 1 semantics: within a fully
// instantiated world the partner character is always determined.
func (s *String) Worlds(minProb float64, limit int) []World {
	if s.Len() == 0 {
		return nil
	}
	var out []World
	buf := make([]byte, s.Len())
	var rec func(i int, logp float64)
	rec = func(i int, logp float64) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if i == s.Len() {
			// Re-evaluate correlated positions against the complete world.
			lp := 0.0
			for k := 0; k < s.Len(); k++ {
				pk := s.ProbAt(k, buf[k])
				if corr, ok := s.corrFor(k, buf[k]); ok {
					if buf[corr.DepAt] == corr.DepChar {
						pk = corr.ProbWhenPresent
					} else {
						pk = corr.ProbWhenAbsent
					}
				}
				if pk <= 0 {
					return
				}
				lp += prob.Log(pk)
			}
			if p := prob.Exp(lp); p > minProb {
				out = append(out, World{Str: string(buf), Prob: p})
			}
			return
		}
		for _, c := range s.Pos[i] {
			if c.Prob <= 0 {
				continue
			}
			// Prune on the uncorrelated upper bound: a correlation can only
			// change the factor, so prune conservatively with max(pr, pr+, pr−).
			up := c.Prob
			if corr, ok := s.corrFor(i, c.Char); ok {
				if corr.ProbWhenPresent > up {
					up = corr.ProbWhenPresent
				}
				if corr.ProbWhenAbsent > up {
					up = corr.ProbWhenAbsent
				}
			}
			if up <= 0 {
				continue
			}
			nl := logp + prob.Log(up)
			if !prob.Greater(nl, minProb) && minProb > 0 {
				continue
			}
			buf[i] = c.Char
			rec(i+1, nl)
		}
	}
	rec(0, 0)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Prob != out[b].Prob {
			return out[a].Prob > out[b].Prob
		}
		return out[a].Str < out[b].Str
	})
	return out
}

// Deterministic builds an uncertain string in which every position has a
// single character with probability 1 — the paper's notion that "a
// deterministic string has only one character at each position".
func Deterministic(text string) *String {
	s := &String{Pos: make([]Position, len(text))}
	for i := 0; i < len(text); i++ {
		s.Pos[i] = Position{{Char: text[i], Prob: 1}}
	}
	return s
}

// Format renders the string in the tabular style of the paper's figures,
// one position per column. Intended for examples and debugging.
func (s *String) Format() string {
	var b strings.Builder
	for i, pos := range s.Pos {
		if i > 0 {
			b.WriteString(" | ")
		}
		for k, c := range pos {
			if k > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%c:%.2g", c.Char, c.Prob)
		}
	}
	return b.String()
}

// Clone returns a deep copy of the string.
func (s *String) Clone() *String {
	c := &String{
		Pos:  make([]Position, len(s.Pos)),
		Corr: append([]Correlation(nil), s.Corr...),
	}
	for i, p := range s.Pos {
		c.Pos[i] = append(Position(nil), p...)
	}
	return c
}
