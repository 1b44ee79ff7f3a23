package special

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/ustring"
)

// decodeSpecialCase decodes fuzz bytes — zeros once they run out — into a
// one-choice-per-position uncertain string of up to 64 positions over up to
// 4 letters with probabilities in (0, 1], up to 3 correlations between its
// characters, a threshold τ in (0, 1] and a pattern over the alphabet.
func decodeSpecialCase(data []byte) (u *ustring.String, tau float64, p []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	n := 1 + next()%64
	sigma := 1 + next()%4
	u = &ustring.String{Pos: make([]ustring.Position, n)}
	for i := range u.Pos {
		u.Pos[i] = ustring.Position{{Char: byte('A' + next()%sigma), Prob: float64(1+next()) / 256}}
	}
	governed := make(map[int]bool)
	for range next() % 4 {
		at, dep := next()%n, next()%n
		if at == dep || governed[at] {
			continue
		}
		governed[at] = true
		u.Corr = append(u.Corr, ustring.Correlation{
			At:              at,
			Char:            u.Pos[at][0].Char,
			DepAt:           dep,
			DepChar:         u.Pos[dep][0].Char,
			ProbWhenPresent: float64(next()) / 255,
			ProbWhenAbsent:  float64(next()) / 255,
		})
	}
	tau = float64(1+next()) / 256
	p = make([]byte, 1+next()%12)
	for i := range p {
		p[i] = byte('A' + next()%sigma)
	}
	return u, tau, p
}

// FuzzSpecialOracle holds the Section 4 index to the index-free online
// matcher, baseline.MatchDP, on fuzzed special uncertain strings with
// correlations: the same positions for every pattern and threshold, except
// where some window's probability lies within 1e-9 of τ and the index's
// prefix-sum arithmetic and the matcher's product may round to opposite
// sides of the cut.
func FuzzSpecialOracle(f *testing.F) {
	f.Add([]byte{40, 3, 0, 200, 1, 100, 2, 250, 0, 30, 1, 90, 2, 60, 2, 5, 9, 200, 40, 100, 3, 0, 1, 2})
	f.Add([]byte{63, 1, 0, 255, 0, 255, 0, 128, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 5})
	f.Add([]byte{20, 2, 1, 10, 0, 200, 1, 128, 0, 255, 1, 64, 3, 4, 7, 255, 0, 2, 9, 0, 200, 30, 2, 1, 0})
	f.Add([]byte{5, 4, 0, 100, 1, 100, 2, 100, 3, 100, 0, 100, 1, 1, 0, 255, 255, 200, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, tau, p := decodeSpecialCase(data)
		s, err := FromUString(u)
		if err != nil {
			t.Fatalf("FromUString: %v", err)
		}
		ix, err := Build(s)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		got, err := ix.Search(p, tau)
		if err != nil {
			t.Fatalf("Search(%q, %v): %v", p, tau, err)
		}
		want := baseline.MatchDP(u, p, tau)
		if reflect.DeepEqual(got, want) || len(got) == 0 && len(want) == 0 {
			return
		}
		for i := 0; i+len(p) <= u.Len(); i++ {
			if math.Abs(u.OccurrenceProb(p, i)-tau) <= 1e-9 {
				return
			}
		}
		t.Fatalf("Search(%q, %v) = %v, MatchDP = %v (string %v, correlations %+v)", p, tau, got, want, u.Pos, u.Corr)
	})
}
