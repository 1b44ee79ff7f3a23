// Package prob provides log-domain probability arithmetic for the uncertain
// string indexes.
//
// The paper's C array (Section 4.1) stores successive multiplicative
// probabilities C[j] = ∏_{i≤j} Pr(c_i). Multiplying thousands of factors in
// [0,1] underflows IEEE doubles long before the string lengths used in the
// paper's evaluation (n up to 300K), so this package keeps every probability
// as its natural logarithm and the C array as a prefix *sum* of logs. A
// substring probability is then a difference of two prefix sums, and the
// paper's -1 separator sentinel becomes -Inf, which poisons any product that
// spans a factor boundary.
package prob

import (
	"errors"
	"fmt"
	"math"
)

// LogZero is the logarithm of probability zero. Any product involving it is
// itself LogZero, which mirrors the paper's use of a -1 sentinel at separator
// positions of the C array.
var LogZero = math.Inf(-1)

// Eps is the comparison tolerance used throughout when probabilities computed
// along different paths (direct multiplication vs. prefix-sum difference) are
// compared.
const Eps = 1e-9

// ErrOutOfRange reports a probability outside [0, 1].
var ErrOutOfRange = errors.New("prob: probability out of range [0,1]")

// Log converts a plain probability in [0,1] to log domain. Log(0) = LogZero.
func Log(p float64) float64 {
	if p <= 0 {
		return LogZero
	}
	return math.Log(p)
}

// Exp converts a log-domain probability back to a plain probability.
func Exp(lp float64) float64 {
	if lp == LogZero {
		return 0
	}
	return math.Exp(lp)
}

// Valid reports whether p is a valid probability in [0, 1], allowing a small
// tolerance above 1 for accumulated floating point error.
func Valid(p float64) bool {
	return !math.IsNaN(p) && p >= 0 && p <= 1+Eps
}

// GreaterEq reports whether the log-domain probability lp is at least the
// plain-domain threshold tau, with tolerance. It avoids exp() for the common
// decisions taken inside query loops.
func GreaterEq(lp, tau float64) bool {
	if tau <= 0 {
		return true
	}
	if lp == LogZero {
		return false
	}
	return lp >= math.Log(tau)-Eps
}

// Greater reports whether the log-domain probability lp is strictly greater
// than the plain-domain threshold tau (the paper's "> τ" match condition),
// with tolerance: values within Eps of the threshold are treated as equal and
// therefore not greater.
func Greater(lp, tau float64) bool {
	if lp == LogZero {
		return false
	}
	if tau <= 0 {
		return true
	}
	return lp > math.Log(tau)+Eps
}

// Threshold is Greater against one fixed tau with log(tau) taken once, for
// query loops that test many windows against the same threshold:
// NewThreshold(tau).Passes(lp) == Greater(lp, tau) for every lp and tau.
type Threshold struct {
	logTau float64 // log(tau)+Eps
	all    bool    // tau ≤ 0: every non-zero probability passes
}

// NewThreshold prepares the test of the plain-domain threshold tau.
func NewThreshold(tau float64) Threshold {
	if tau <= 0 {
		return Threshold{all: true}
	}
	return Threshold{logTau: math.Log(tau) + Eps}
}

// Passes reports Greater(lp, tau) for the threshold's tau.
func (t Threshold) Passes(lp float64) bool {
	if lp == LogZero {
		return false
	}
	return t.all || lp > t.logTau
}

// Prefix is the log-domain successive multiplicative probability array: the
// paper's C array. Prefix[i] holds the sum of logs of the first i
// probabilities, so the probability of the half-open span [i, j) is
// exp(Prefix[j] - Prefix[i]).
//
// Positions whose probability is zero (for example separator characters
// between extended maximal factors) contribute LogZero; every span containing
// such a position evaluates to probability zero.
type Prefix struct {
	sums []float64 // sums[i] = Σ_{k<i} log p_k; len = n+1; sums[0] = 0
	// zeroUpTo[i] = number of LogZero entries among the first i positions;
	// lets Span detect poisoned ranges without relying on -Inf - -Inf = NaN.
	zeroUpTo []int32
}

// NewPrefix builds the prefix array for the given per-position log
// probabilities (log domain; use prob.Log to convert).
func NewPrefix(logps []float64) *Prefix {
	n := len(logps)
	p := &Prefix{
		sums:     make([]float64, n+1),
		zeroUpTo: make([]int32, n+1),
	}
	var run float64
	var zeros int32
	for i, lp := range logps {
		if lp == LogZero || math.IsNaN(lp) {
			zeros++
			// Do not add -Inf into the running sum: the count of zero
			// positions carries the information and keeps sums finite.
		} else {
			run += lp
		}
		p.sums[i+1] = run
		p.zeroUpTo[i+1] = zeros
	}
	return p
}

// PrefixFromParts assembles a Prefix over stored sums and zero counts, as
// Sums and ZeroCounts return them; both are retained. Their values are not
// checked: Span indexes only by its arguments, which it bounds by Len.
func PrefixFromParts(sums []float64, zeroUpTo []int32) (*Prefix, error) {
	if len(sums) == 0 || len(zeroUpTo) != len(sums) {
		return nil, fmt.Errorf("prob: %d prefix sums and %d zero counts, want the same positive length",
			len(sums), len(zeroUpTo))
	}
	return &Prefix{sums: sums, zeroUpTo: zeroUpTo}, nil
}

// Sums returns the prefix log sums, Len()+1 entries (shared, read-only).
func (p *Prefix) Sums() []float64 { return p.sums }

// ZeroCounts returns the prefix counts of zero-probability positions,
// Len()+1 entries (shared, read-only).
func (p *Prefix) ZeroCounts() []int32 { return p.zeroUpTo }

// Len returns the number of positions covered by the prefix array.
func (p *Prefix) Len() int { return len(p.sums) - 1 }

// Span returns the log probability of the half-open span [i, j),
// 0 ≤ i ≤ j ≤ Len(). If any position in the span has probability zero the
// result is LogZero.
func (p *Prefix) Span(i, j int) float64 {
	if i < 0 || j > p.Len() || i > j {
		return LogZero
	}
	if p.zeroUpTo[j]-p.zeroUpTo[i] > 0 {
		return LogZero
	}
	return p.sums[j] - p.sums[i]
}

// SpanProb returns the plain probability of the half-open span [i, j).
func (p *Prefix) SpanProb(i, j int) float64 { return Exp(p.Span(i, j)) }

// Bytes returns the approximate memory footprint of the structure, used by
// the Figure 9(c) space accounting.
func (p *Prefix) Bytes() int {
	return len(p.sums)*8 + len(p.zeroUpTo)*4
}

// MulAll returns the log-domain product of the given log probabilities.
func MulAll(lps ...float64) float64 {
	var s float64
	for _, lp := range lps {
		if lp == LogZero || math.IsNaN(lp) {
			return LogZero
		}
		s += lp
	}
	return s
}

// OrAll combines plain-domain probabilities with the paper's OR relevance
// semantics for string listing (Section 6):
//
//	Rel_OR = Σ p_j − ∏ p_j
//
// as defined under Figure 6. The paper's formula is an inclusion/exclusion
// style combination of per-occurrence probabilities.
func OrAll(ps []float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	if len(ps) == 1 {
		return ps[0]
	}
	sum := 0.0
	prod := 1.0
	for _, p := range ps {
		sum += p
		prod *= p
	}
	v := sum - prod
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}
