package factor

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/rank"
	"repro/internal/ustring"
)

// checkMapAgainstArrays holds a Map to the two per-position arrays it
// replaces: Pos at every unmarked position, and Prefix.Span's dead/live
// verdict for every window up to one past the longest factor — through
// Run and through the one-rank Window alike.
func checkMapAgainstArrays(t *testing.T, tr *Transformed, m *Map) {
	t.Helper()
	pre := prob.NewPrefix(tr.LogP)
	n := tr.Len()
	if m.Bits().Len() != n {
		t.Fatalf("map covers %d positions, want %d", m.Bits().Len(), n)
	}
	for x := 0; x < n; x++ {
		if marked := pre.Span(x, x+1) == prob.LogZero; marked != m.Bits().Get(x) {
			t.Fatalf("position %d: marked = %v, Prefix says %v", x, !marked, marked)
		} else if !marked && m.Pos(x) != int(tr.Pos[x]) {
			t.Fatalf("Pos(%d) = %d, want %d", x, m.Pos(x), tr.Pos[x])
		}
		for w := 0; w <= tr.MaxFactorLen+1 && x+w <= n; w++ {
			live := m.Run(x+w) == m.Run(x)
			if want := pre.Span(x, x+w) != prob.LogZero; live != want {
				t.Fatalf("window [%d,%d): live = %v, Prefix.Span says %v", x, x+w, live, want)
			}
			if w > 16 && w <= tr.MaxFactorLen {
				// Windows up to 16 already cross every word boundary;
				// the one past the longest factor covers the long spans.
				continue
			}
			if pos, ok := m.Window(x, w); ok != live || ok && pos != m.Pos(x) {
				t.Fatalf("Window(%d, %d) = (%d, %v), want (%d, %v)", x, w, pos, ok, m.Pos(x), live)
			}
		}
	}
}

func TestMapMatchesPosAndPrefix(t *testing.T) {
	check := func(t *testing.T, s *ustring.String, tau float64) {
		tr, err := Transform(s, tau)
		if err != nil {
			t.Fatal(err)
		}
		m := tr.Map()
		checkMapAgainstArrays(t, tr, m)
		bits, err := rank.FromParts(m.Bits().Words(), m.Bits().BlockCounts(), m.Bits().Len())
		if err != nil {
			t.Fatal(err)
		}
		re, err := MapFromParts(bits, m.Deltas())
		if err != nil {
			t.Fatal(err)
		}
		checkMapAgainstArrays(t, tr, re)
		if _, err := MapFromParts(bits, append(m.Deltas(), 0)); err == nil {
			t.Error("MapFromParts accepted one delta too many")
		}
	}
	for _, sigma := range []int{1, 2, 4, 22} {
		for _, n := range []int{0, 1, 63, 64, 65, 512, 513, 4097} {
			for _, theta := range []float64{0, 0.3, 0.9} {
				t.Run(fmt.Sprintf("sigma=%d/n=%d/theta=%v", sigma, n, theta), func(t *testing.T) {
					check(t, gen.Single(gen.Config{
						N: n, Theta: theta, Seed: int64(n + sigma), Alphabet: gen.ProteinAlphabet[:sigma],
					}), 0.1)
				})
			}
		}
	}
	// A correlated character whose base probability is 0 is viable through
	// pr⁺ alone: it sits inside a factor, and every window over it is dead.
	t.Run("correlated zero base", func(t *testing.T) {
		s := &ustring.String{
			Pos: []ustring.Position{
				{{Char: 'e', Prob: .6}, {Char: 'f', Prob: .4}},
				{{Char: 'q', Prob: 1}},
				{{Char: 'z', Prob: 0}, {Char: 'w', Prob: 1}},
				{{Char: 'q', Prob: 1}},
			},
			Corr: []ustring.Correlation{{
				At: 2, Char: 'z', DepAt: 0, DepChar: 'e',
				ProbWhenPresent: .9, ProbWhenAbsent: .05,
			}},
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		tr, err := Transform(s, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if !occursInX(tr, []byte("eqzq"), 0) {
			t.Fatalf("zero-base correlated character missing from X: %q", tr.T)
		}
		if m := tr.Map(); m.Bits().Ones() <= len(tr.Spans) {
			t.Errorf("%d marked positions for %d separators: the zero-base character is unmarked", m.Bits().Ones(), len(tr.Spans))
		}
		check(t, s, 0.3)
	})
}
