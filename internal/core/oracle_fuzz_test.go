package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/ustring"
)

// fuzzBytes hands out the fuzz input a byte at a time, zeros once it runs
// out, so every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// frac maps the next byte into [0, 1].
func (b *fuzzBytes) frac() float64 { return float64(b.next()) / 255 }

// oracleCase is one decoded FuzzOracle input.
type oracleCase struct {
	s       *ustring.String
	tauMin  float64
	tau     float64
	longCap int
	p       []byte
}

// decodeOracleCase decodes fuzz bytes into a small uncertain string (up to
// 64 positions over an alphabet of up to 4 letters, choices with zero
// probability allowed, up to 3 correlations), τmin, a threshold τ ≥ τmin, a
// long-pattern cap (small caps send long patterns down the plain scan
// fallback) and a pattern over the alphabet.
func decodeOracleCase(data []byte) oracleCase {
	b := fuzzBytes(data)
	n := 1 + int(b.next())%64
	sigma := 1 + int(b.next())%4
	var c oracleCase
	c.s = &ustring.String{Pos: make([]ustring.Position, n)}
	for i := range c.s.Pos {
		h := int(b.next())
		k := 1 + h%sigma
		first := h / sigma % sigma
		pos := make(ustring.Position, k)
		sum := 0.0
		for t := range pos {
			w := float64(b.next())
			pos[t] = ustring.Choice{Char: byte('A' + (first+t)%sigma), Prob: w}
			sum += w
		}
		for t := range pos {
			if sum == 0 {
				pos[t].Prob = 1 / float64(k)
			} else {
				pos[t].Prob /= sum
			}
		}
		c.s.Pos[i] = pos
	}
	for range int(b.next()) % 4 {
		at, dep := int(b.next())%n, int(b.next())%n
		cr := ustring.Correlation{
			At:              at,
			Char:            c.s.Pos[at][int(b.next())%len(c.s.Pos[at])].Char,
			DepAt:           dep,
			DepChar:         c.s.Pos[dep][int(b.next())%len(c.s.Pos[dep])].Char,
			ProbWhenPresent: b.frac(),
			ProbWhenAbsent:  b.frac(),
		}
		c.s.Corr = append(c.s.Corr, cr)
	}
	c.tauMin = 0.05 + 0.9*b.frac()
	c.tau = c.tauMin + (1-c.tauMin)*b.frac()
	c.longCap = int(b.next()) % 5 // 0 is the default cap
	c.p = make([]byte, 1+int(b.next())%12)
	for i := range c.p {
		c.p[i] = byte('A' + int(b.next())%sigma)
	}
	return c
}

// nearThreshold reports whether some window's oracle probability for p lies
// within 1e-9 of tau, where the index's prefix-sum arithmetic and the
// oracle's direct product may round to opposite sides of the cut.
func nearThreshold(s *ustring.String, p []byte, tau float64) bool {
	for i := 0; i+len(p) <= s.Len(); i++ {
		if math.Abs(s.OccurrenceProb(p, i)-tau) <= 1e-9 {
			return true
		}
	}
	return false
}

// FuzzOracle holds both exact backends to each other — whole hits, the
// text position of the surviving window included — and to the index-free
// online matcher, on small fuzzed uncertain strings with correlations.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{40, 3, 7, 200, 50, 9, 100, 100, 1, 2, 3, 4, 5, 0, 0, 0, 30, 90, 2, 6, 1, 2, 0, 1})
	f.Add([]byte{63, 1, 0, 0, 0, 10, 200, 3, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{20, 2, 3, 0, 255, 5, 17, 200, 9, 3, 3, 0, 1, 1, 250, 10, 20, 7, 4, 4, 7, 1, 0, 1, 1})
	// TestCorrelatedZeroBase's shape: a zero-weight choice made probable by a
	// correlation.
	f.Add([]byte{2, 1, 1, 128, 128, 1, 0, 255, 0, 255, 1, 1, 0, 0, 0, 255, 0, 14, 28, 0, 1, 0, 0})
	f.Add([]byte{64, 4, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 2, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeOracleCase(data)
		if c.s.Validate() != nil {
			return
		}
		plain, err := Build(c.s, c.tauMin, WithLongCap(c.longCap))
		if err != nil {
			t.Fatalf("plain build: %v", err)
		}
		comp, err := BuildCompressed(c.s, c.tauMin)
		if err != nil {
			t.Fatalf("compressed build: %v", err)
		}
		p, tau := c.p, c.tau

		ph, err := plain.SearchHits(p, tau)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := comp.SearchHits(p, tau)
		if err != nil {
			t.Fatal(err)
		}
		sortHitsByProb(ph)
		if !reflect.DeepEqual(ph, ch) {
			t.Fatalf("SearchHits(%q, %v): plain %v, compressed %v", p, tau, ph, ch)
		}
		for _, k := range []int{1, 3, 1 << 20} {
			pt, err1 := plain.SearchTopK(p, k)
			ct, err2 := comp.SearchTopK(p, k)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(pt, ct) {
				t.Fatalf("SearchTopK(%q, %d): plain %v, compressed %v", p, k, pt, ct)
			}
		}
		pn, err1 := plain.SearchCount(p, tau)
		cn, err2 := comp.SearchCount(p, tau)
		if err1 != nil || err2 != nil || pn != cn || pn != len(ph) {
			t.Fatalf("SearchCount(%q, %v): plain %d (%v), compressed %d (%v), %d hits", p, tau, pn, err1, cn, err2, len(ph))
		}

		if nearThreshold(c.s, p, tau) {
			return
		}
		got, err := plain.Search(p, tau)
		if err != nil {
			t.Fatal(err)
		}
		if want := baseline.MatchDP(c.s, p, tau); !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%q, %v) over %s (τmin %v): index %v, oracle %v",
				p, tau, c.s.Format(), c.tauMin, got, want)
		}
	})
}

// TestCorrelatedZeroBase: a character with base probability 0 that a
// correlation makes probable — windows over it were once dead on both
// backends — is scored by its corrected probability, as the online matcher
// scores it.
func TestCorrelatedZeroBase(t *testing.T) {
	s := &ustring.String{
		Pos: []ustring.Position{
			{{Char: 'A', Prob: 0.5}, {Char: 'B', Prob: 0.5}},
			{{Char: 'A', Prob: 0}, {Char: 'B', Prob: 1}},
			{{Char: 'A', Prob: 1}},
		},
		Corr: []ustring.Correlation{{At: 1, Char: 'A', DepAt: 0, DepChar: 'A', ProbWhenPresent: 1, ProbWhenAbsent: 0}},
	}
	plain, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildCompressed(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"AA", "AAA", "BAA", "BA"} {
		want := baseline.MatchDP(s, []byte(p), 0.2)
		for _, b := range []Backend{plain, comp} {
			if got, _ := b.Search([]byte(p), 0.2); !reflect.DeepEqual(got, want) {
				t.Errorf("%s Search(%q) = %v, oracle %v", b.Kind(), p, got, want)
			}
		}
	}
}
