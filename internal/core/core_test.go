package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/ustring"
)

// randomUString builds a small random uncertain string.
func randomUString(rng *rand.Rand, n, sigma int, theta float64) *ustring.String {
	s := &ustring.String{Pos: make([]ustring.Position, n)}
	for i := 0; i < n; i++ {
		if rng.Float64() >= theta {
			s.Pos[i] = ustring.Position{{Char: byte('a' + rng.Intn(sigma)), Prob: 1}}
			continue
		}
		k := 2 + rng.Intn(2)
		if k > sigma {
			k = sigma
		}
		perm := rng.Perm(sigma)
		weights := make([]float64, k)
		total := 0.0
		for j := range weights {
			weights[j] = 0.1 + rng.Float64()
			total += weights[j]
		}
		pos := make(ustring.Position, k)
		acc := 0.0
		for j := 0; j < k; j++ {
			p := weights[j] / total
			if j == k-1 {
				p = 1 - acc
			}
			acc += p
			pos[j] = ustring.Choice{Char: byte('a' + perm[j]), Prob: p}
		}
		s.Pos[i] = pos
	}
	return s
}

// allPatterns enumerates the deterministic patterns of length m over sigma
// letters.
func allPatterns(m, sigma int) [][]byte {
	if m == 0 {
		return [][]byte{nil}
	}
	var out [][]byte
	for _, prefix := range allPatterns(m-1, sigma) {
		for c := 0; c < sigma; c++ {
			p := append(append([]byte(nil), prefix...), byte('a'+c))
			out = append(out, p)
		}
	}
	return out
}

// TestSearchMatchesOracleExhaustive is the central correctness test: on
// random small strings, for every pattern up to length 4 and several τ
// values, the index must return exactly the brute-force match set.
func TestSearchMatchesOracleExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(14)
		sigma := 3
		theta := []float64{0.3, 0.6, 1.0}[trial%3]
		tauMin := []float64{0.05, 0.1, 0.2}[rng.Intn(3)]
		s := randomUString(rng, n, sigma, theta)
		ix, err := Build(s, tauMin)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for m := 1; m <= 4; m++ {
			for _, p := range allPatterns(m, sigma) {
				for _, tau := range []float64{tauMin, tauMin * 1.5, 0.3, 0.6} {
					if tau < tauMin || tau > 1 {
						continue
					}
					want := s.MatchPositions(p, tau)
					got, err := ix.Search(p, tau)
					if err != nil {
						t.Fatalf("Search(%q, %v): %v", p, tau, err)
					}
					if !equalIntSlices(got, want) {
						t.Fatalf("trial %d: Search(%q, τ=%v, τmin=%v) = %v, want %v\nS: %s",
							trial, p, tau, tauMin, got, want, s.Format())
					}
				}
			}
		}
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSearchRealisticWorkload runs the generator's protein-style data
// through the index against the oracle, exercising short, long-block and
// scan paths.
func TestSearchRealisticWorkload(t *testing.T) {
	s := gen.Single(gen.Config{N: 4000, Theta: 0.4, Seed: 67})
	tauMin := 0.1
	ix, err := Build(s, tauMin)
	if err != nil {
		t.Fatal(err)
	}
	lvl := ix.Engine().ShortLevels()
	t.Logf("short levels: %d, long levels: %v..%v", lvl, ix.Transformed().MaxFactorLen, ix.Engine().ShortLevels())
	rng := rand.New(rand.NewSource(71))
	for _, m := range []int{1, 2, 3, 5, 8, lvl, lvl + 1, lvl + 3, 25, 60} {
		pats := gen.Patterns(s, 15, m, rng.Int63())
		for _, p := range pats {
			for _, tau := range []float64{0.1, 0.15, 0.25, 0.5} {
				want := s.MatchPositions(p, tau)
				got, err := ix.Search(p, tau)
				if err != nil {
					t.Fatalf("Search(%q, %v): %v", p, tau, err)
				}
				if !equalIntSlices(got, want) {
					t.Fatalf("m=%d Search(%q, τ=%v) = %v, want %v", m, p, tau, got, want)
				}
			}
		}
	}
}

func TestSearchHitsProbabilities(t *testing.T) {
	s := gen.Single(gen.Config{N: 1000, Theta: 0.3, Seed: 73})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pats := gen.Patterns(s, 20, 4, 79)
	for _, p := range pats {
		hits, err := ix.SearchHits(p, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		// Short-pattern hits arrive in decreasing probability order.
		for i := 1; i < len(hits); i++ {
			if hits[i].LogProb > hits[i-1].LogProb+1e-9 {
				t.Fatalf("hits out of order: %v then %v", hits[i-1].Prob(), hits[i].Prob())
			}
		}
		for _, h := range hits {
			want := s.OccurrenceProb(p, int(h.Orig))
			if math.Abs(h.Prob()-want) > 1e-9 {
				t.Fatalf("hit probability %v != oracle %v (pos %d, pattern %q)",
					h.Prob(), want, h.Orig, p)
			}
		}
	}
}

func TestCorrelatedSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		s := randomUString(rng, n, 3, 0.7)
		// Wire one or two correlations between existing choices.
		for c := 0; c < 1+rng.Intn(2); c++ {
			at := rng.Intn(n)
			dep := rng.Intn(n)
			if dep == at {
				continue
			}
			ch := s.Pos[at][rng.Intn(len(s.Pos[at]))]
			dch := s.Pos[dep][rng.Intn(len(s.Pos[dep]))]
			lo, hi := ch.Prob*0.5, math.Min(1, ch.Prob*1.5)
			s.Corr = append(s.Corr, ustring.Correlation{
				At: at, Char: ch.Char, DepAt: dep, DepChar: dch.Char,
				ProbWhenPresent: hi, ProbWhenAbsent: lo,
			})
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		tauMin := 0.1
		ix, err := Build(s, tauMin)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 4; m++ {
			for _, p := range allPatterns(m, 3) {
				for _, tau := range []float64{0.1, 0.25, 0.5} {
					want := s.MatchPositions(p, tau)
					got, err := ix.Search(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !equalIntSlices(got, want) {
						t.Fatalf("trial %d corr: Search(%q, %v) = %v, want %v\nS: %s corr=%v",
							trial, p, tau, got, want, s.Format(), s.Corr)
					}
				}
			}
		}
	}
}

func TestQueryErrors(t *testing.T) {
	s := gen.Single(gen.Config{N: 100, Theta: 0.2, Seed: 89})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(nil, 0.2); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := ix.Search([]byte{'A', 0, 'B'}, 0.2); err == nil {
		t.Error("separator byte in pattern accepted")
	}
	for _, tau := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := ix.Search([]byte("A"), tau); err == nil {
			t.Errorf("tau=%v accepted", tau)
		}
	}
	if _, err := ix.Search([]byte("A"), 0.05); err == nil {
		t.Error("tau below tauMin accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	bad := &ustring.String{Pos: []ustring.Position{{{Char: 'a', Prob: 0.4}}}}
	if _, err := Build(bad, 0.1); err == nil {
		t.Error("invalid (unnormalised) string accepted")
	}
	if _, err := Build(ustring.Deterministic("ab"), 0); err == nil {
		t.Error("tauMin=0 accepted")
	}
}

func TestNoMatchPattern(t *testing.T) {
	s := gen.Single(gen.Config{N: 500, Theta: 0.2, Seed: 97})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Search([]byte("zzzzz"), 0.2) // lowercase never generated
	if err != nil || got != nil {
		t.Errorf("Search(zzzzz) = %v, %v; want nil, nil", got, err)
	}
}

func TestDeterministicStringBehavesLikeExactSearch(t *testing.T) {
	s := ustring.Deterministic("abracadabra")
	ix, err := Build(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Search([]byte("abra"), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIntSlices(got, []int{0, 7}) {
		t.Errorf("Search(abra) = %v, want [0 7]", got)
	}
	// τ = 1: nothing is *strictly* greater than 1.
	got, err = ix.Search([]byte("abra"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("Search(abra, 1) = %v, want nil", got)
	}
}

func TestLongCapFallbackAgreesWithOracle(t *testing.T) {
	// Force the scan fallback by capping the block levels very low.
	s := gen.Single(gen.Config{N: 2000, Theta: 0.2, Seed: 101})
	capped, err := Build(s, 0.1, WithLongCap(12))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{13, 16, 20} {
		for _, p := range gen.Patterns(s, 10, m, 103) {
			want := s.MatchPositions(p, 0.12)
			a, err := capped.Search(p, 0.12)
			if err != nil {
				t.Fatal(err)
			}
			b, err := full.Search(p, 0.12)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIntSlices(a, want) || !equalIntSlices(b, want) {
				t.Fatalf("m=%d capped=%v full=%v want=%v", m, a, b, want)
			}
		}
	}
}

func TestSpaceBreakdown(t *testing.T) {
	s := gen.Single(gen.Config{N: 2000, Theta: 0.3, Seed: 107})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sp := ix.Space()
	if sp.TextAndSA <= 0 || sp.ProbArray <= 0 || sp.ShortLevels <= 0 {
		t.Errorf("space breakdown has empty components: %+v", sp)
	}
	if ix.Bytes() != sp.Total() {
		t.Errorf("Bytes() = %d != Total() = %d", ix.Bytes(), sp.Total())
	}
	if ix.TauMin() != 0.1 || ix.Source() != s {
		t.Error("accessors broken")
	}
}

// TestDuplicateElimination verifies the Section 5.2 claim directly: the
// same original position is never reported twice even though the
// transformation duplicates it across factors.
func TestDuplicateElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		s := randomUString(rng, 3+rng.Intn(10), 3, 0.8)
		ix, err := Build(s, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 3; m++ {
			for _, p := range allPatterns(m, 3) {
				hits, err := ix.SearchHits(p, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[int32]bool{}
				for _, h := range hits {
					if seen[h.Orig] {
						t.Fatalf("position %d reported twice for %q", h.Orig, p)
					}
					seen[h.Orig] = true
				}
			}
		}
	}
}

func TestHitOrderShortQueriesSorted(t *testing.T) {
	s := gen.Single(gen.Config{N: 3000, Theta: 0.4, Seed: 113})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.Patterns(s, 10, 3, 127) {
		positions, err := ix.Search(p, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.IntsAreSorted(positions) {
			t.Fatalf("Search output not sorted: %v", positions)
		}
	}
}

func TestReflectDeepEqualHitsAreStable(t *testing.T) {
	// Two identical queries return identical results (purity check over the
	// accessor-based RMQs).
	s := gen.Single(gen.Config{N: 1500, Theta: 0.3, Seed: 131})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p := gen.Patterns(s, 1, 5, 137)[0]
	a, _ := ix.SearchHits(p, 0.12)
	b, _ := ix.SearchHits(p, 0.12)
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated query returned different hits")
	}
}
