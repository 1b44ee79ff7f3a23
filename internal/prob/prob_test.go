package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogExpRoundTrip(t *testing.T) {
	cases := []float64{0, 1e-300, 1e-9, 0.1, 0.25, 0.5, 0.99, 1}
	for _, p := range cases {
		got := Exp(Log(p))
		if math.Abs(got-p) > 1e-12 {
			t.Errorf("Exp(Log(%g)) = %g", p, got)
		}
	}
}

func TestLogZeroSemantics(t *testing.T) {
	if Exp(LogZero) != 0 {
		t.Fatalf("Exp(LogZero) = %g, want 0", Exp(LogZero))
	}
	if Log(0) != LogZero {
		t.Fatalf("Log(0) = %g, want -Inf", Log(0))
	}
	if Log(-0.5) != LogZero {
		t.Fatalf("Log(-0.5) = %g, want -Inf", Log(-0.5))
	}
}

func TestValid(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want bool
	}{
		{0, true}, {1, true}, {0.5, true}, {1 + 2e-10, true},
		{-0.1, false}, {1.1, false}, {math.NaN(), false},
	} {
		if got := Valid(tc.p); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestGreaterEqAndGreater(t *testing.T) {
	lp := Log(0.5)
	if !GreaterEq(lp, 0.5) {
		t.Error("GreaterEq(log .5, .5) = false")
	}
	if Greater(lp, 0.5) {
		t.Error("Greater(log .5, .5) = true; boundary must not count as greater")
	}
	if !Greater(lp, 0.4999) {
		t.Error("Greater(log .5, .4999) = false")
	}
	if Greater(LogZero, 0.0001) {
		t.Error("Greater(LogZero, .0001) = true")
	}
	if !GreaterEq(Log(0.3), 0) || !Greater(Log(0.3), 0) {
		t.Error("any nonzero probability must exceed tau=0")
	}
	if GreaterEq(LogZero, 0.1) {
		t.Error("GreaterEq(LogZero, .1) = true")
	}
}

func TestPrefixSpanBasic(t *testing.T) {
	// The paper's Figure 5 C array: banana with probabilities
	// .4 .7 .5 .8 .9 .6 → C = .4 .28 .14 .112 .1008 .06048.
	ps := []float64{0.4, 0.7, 0.5, 0.8, 0.9, 0.6}
	lps := make([]float64, len(ps))
	for i, p := range ps {
		lps[i] = Log(p)
	}
	pre := NewPrefix(lps)
	if pre.Len() != 6 {
		t.Fatalf("Len = %d, want 6", pre.Len())
	}
	wantC := []float64{0.4, 0.28, 0.14, 0.112, 0.1008, 0.06048}
	for j := 1; j <= 6; j++ {
		got := pre.SpanProb(0, j)
		if math.Abs(got-wantC[j-1]) > 1e-12 {
			t.Errorf("C[%d] = %g, want %g", j, got, wantC[j-1])
		}
	}
	// The Figure 5 query: "ana" at position 2 (0-based 1): .7*.5*.8 = .28;
	// at position 4 (0-based 3): .8*.9*.6 = .432.
	if got := pre.SpanProb(1, 4); math.Abs(got-0.28) > 1e-12 {
		t.Errorf("span[1,4) = %g, want 0.28", got)
	}
	if got := pre.SpanProb(3, 6); math.Abs(got-0.432) > 1e-12 {
		t.Errorf("span[3,6) = %g, want 0.432", got)
	}
}

func TestPrefixSeparatorPoisonsSpan(t *testing.T) {
	lps := []float64{Log(0.5), LogZero, Log(0.5)}
	pre := NewPrefix(lps)
	if got := pre.Span(0, 3); got != LogZero {
		t.Errorf("span over separator = %g, want LogZero", got)
	}
	if got := pre.Span(0, 1); math.Abs(Exp(got)-0.5) > 1e-12 {
		t.Errorf("span before separator = %g, want log .5", got)
	}
	if got := pre.Span(2, 3); math.Abs(Exp(got)-0.5) > 1e-12 {
		t.Errorf("span after separator = %g, want log .5", got)
	}
	if got := pre.Span(1, 2); got != LogZero {
		t.Errorf("span of separator itself = %g, want LogZero", got)
	}
}

func TestPrefixOutOfRange(t *testing.T) {
	pre := NewPrefix([]float64{Log(0.5)})
	for _, span := range [][2]int{{-1, 0}, {0, 2}, {1, 0}} {
		if got := pre.Span(span[0], span[1]); got != LogZero {
			t.Errorf("Span(%d,%d) = %g, want LogZero", span[0], span[1], got)
		}
	}
}

func TestPrefixEmptySpanIsOne(t *testing.T) {
	pre := NewPrefix([]float64{Log(0.5), Log(0.25)})
	if got := pre.SpanProb(1, 1); got != 1 {
		t.Errorf("empty span probability = %g, want 1", got)
	}
}

// Property: Span(i,j) equals the direct product of the span's probabilities,
// for random probability vectors including exact zeros.
func TestPrefixSpanMatchesDirectProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		ps := make([]float64, n)
		lps := make([]float64, n)
		for i := range ps {
			if r.Float64() < 0.1 {
				ps[i] = 0
			} else {
				ps[i] = r.Float64()
			}
			lps[i] = Log(ps[i])
		}
		pre := NewPrefix(lps)
		for trial := 0; trial < 20; trial++ {
			i := r.Intn(n + 1)
			j := i + r.Intn(n+1-i)
			direct := 1.0
			for k := i; k < j; k++ {
				direct *= ps[k]
			}
			got := pre.SpanProb(i, j)
			if math.Abs(got-direct) > 1e-9*(1+direct) {
				t.Logf("span[%d,%d): got %g want %g", i, j, got, direct)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulAll(t *testing.T) {
	got := MulAll(Log(0.5), Log(0.4))
	if math.Abs(Exp(got)-0.2) > 1e-12 {
		t.Errorf("MulAll(.5,.4) = %g, want 0.2", Exp(got))
	}
	if MulAll(Log(0.5), LogZero) != LogZero {
		t.Error("MulAll with zero factor must be LogZero")
	}
	if MulAll() != 0 {
		t.Error("empty MulAll must be log(1) = 0")
	}
}

func TestOrAll(t *testing.T) {
	// Figure 6 of the paper: Rel_OR for "BFA" with occurrence probabilities
	// .06, .09, .048 → (.06+.09+.048) − (.06·.09·.048) = .19774...
	ps := []float64{0.06, 0.09, 0.048}
	want := (0.06 + 0.09 + 0.048) - (0.06 * 0.09 * 0.048)
	if got := OrAll(ps); math.Abs(got-want) > 1e-12 {
		t.Errorf("OrAll = %g, want %g", got, want)
	}
	if got := OrAll(nil); got != 0 {
		t.Errorf("OrAll(nil) = %g, want 0", got)
	}
	if got := OrAll([]float64{0.42}); got != 0.42 {
		t.Errorf("OrAll(single) = %g, want 0.42", got)
	}
	// Clamping: many large probabilities could exceed 1 under the paper's
	// formula; the metric is clamped into [0,1].
	if got := OrAll([]float64{0.9, 0.9, 0.9}); got != 1 {
		t.Errorf("OrAll(3×.9) = %g, want clamp to 1", got)
	}
}

func TestPrefixBytes(t *testing.T) {
	pre := NewPrefix(make([]float64, 100))
	if pre.Bytes() <= 0 {
		t.Error("Bytes must be positive")
	}
}

// A Threshold must decide exactly as Greater does, at the Eps band's edges
// and on the special values included.
func TestThresholdMatchesGreater(t *testing.T) {
	taus := []float64{-1, 0, 1e-300, 0.1, 0.5, 1, math.NaN()}
	for _, tau := range taus {
		thr := NewThreshold(tau)
		lps := []float64{LogZero, math.Inf(1), math.NaN(), -1e300, 0, -0.5, math.Log(0.5)}
		if tau > 0 {
			edge := math.Log(tau) + Eps
			lps = append(lps, edge, math.Nextafter(edge, 1), math.Nextafter(edge, -1))
		}
		for _, lp := range lps {
			if got, want := thr.Passes(lp), Greater(lp, tau); got != want {
				t.Errorf("NewThreshold(%v).Passes(%v) = %v, Greater says %v", tau, lp, got, want)
			}
		}
	}
}
