package factor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// randomString builds a small random uncertain string for exhaustive checks.
func randomString(rng *rand.Rand, n, sigma int, theta float64) *ustring.String {
	s := &ustring.String{Pos: make([]ustring.Position, n)}
	for i := 0; i < n; i++ {
		if rng.Float64() >= theta {
			s.Pos[i] = ustring.Position{{Char: byte('a' + rng.Intn(sigma)), Prob: 1}}
			continue
		}
		k := min(2+rng.Intn(3), sigma)
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// enumerateValid lists every (start, string) pair with base probability of
// occurrence ≥ tau, by DFS over the choices.
func enumerateValid(s *ustring.String, tau float64) map[int][]string {
	out := map[int][]string{}
	var rec func(start, i int, p float64, buf []byte)
	rec = func(start, i int, p float64, buf []byte) {
		if len(buf) > 0 {
			out[start] = append(out[start], string(buf))
		}
		if i >= s.Len() {
			return
		}
		for _, c := range s.Pos[i] {
			np := p * c.Prob
			if np >= tau-1e-12 {
				rec(start, i+1, np, append(buf, c.Char))
			}
		}
	}
	for start := 0; start < s.Len(); start++ {
		rec(start, start, 1, nil)
	}
	return out
}

// occursInX reports whether pattern p occurs in tr.T aligned at original
// position start.
func occursInX(tr *Transformed, p []byte, start int) bool {
	for x := 0; x+len(p) <= len(tr.T); x++ {
		if tr.Pos[x] != int32(start) {
			continue
		}
		if bytes.Equal(tr.T[x:x+len(p)], p) {
			// All positions must be contiguous originals (no separator).
			okPos := true
			for k := range p {
				if tr.Pos[x+k] != int32(start+k) {
					okPos = false
					break
				}
			}
			if okPos {
				return true
			}
		}
	}
	return false
}

// TestLemma2Completeness is the core property of the transformation: every
// deterministic substring with probability ≥ τmin occurs in X at its
// original position (Lemma 2).
func TestLemma2Completeness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(12)
		theta := []float64{0.2, 0.5, 0.8, 1.0}[trial%4]
		tau := []float64{0.05, 0.1, 0.25, 0.5}[rng.Intn(4)]
		s := randomString(rng, n, 4, theta)
		tr, err := Transform(s, tau)
		if err != nil {
			t.Fatalf("Transform: %v", err)
		}
		for start, pats := range enumerateValid(s, tau) {
			for _, p := range pats {
				if !occursInX(tr, []byte(p), start) {
					t.Fatalf("trial %d (tau=%v): valid substring %q at %d missing from X\nS: %s\nT: %q\nPos: %v",
						trial, tau, p, start, s.Format(), tr.T, tr.Pos)
				}
			}
		}
	}
}

// TestSoundness: every character of X corresponds to a real choice of S with
// the correct base probability, every factor is a contiguous S window, and
// every factor's viability probability is ≥ τmin.
func TestSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(15)
		s := randomString(rng, n, 4, 0.6)
		tau := 0.1
		tr, err := Transform(s, tau)
		if err != nil {
			t.Fatalf("Transform: %v", err)
		}
		for _, span := range tr.Spans {
			logp := 0.0
			for x := span.XStart; x < span.XEnd; x++ {
				i := int(tr.Pos[x])
				if i != int(span.SStart)+(x-span.XStart) {
					t.Fatalf("span not contiguous at x=%d", x)
				}
				base := s.ProbAt(i, tr.T[x])
				if base < 0 {
					t.Fatalf("X char %q at S position %d is not a choice", tr.T[x], i)
				}
				if math.Abs(prob.Exp(tr.LogP[x])-base) > 1e-9 {
					t.Fatalf("LogP mismatch at x=%d: %v vs %v", x, prob.Exp(tr.LogP[x]), base)
				}
				logp += tr.LogP[x]
			}
			if prob.Exp(logp) < tau-1e-9 {
				t.Fatalf("factor %v has probability %v < tau", span, prob.Exp(logp))
			}
		}
		// Separators delimit every factor.
		for _, span := range tr.Spans {
			if span.XEnd < len(tr.T) && tr.T[span.XEnd] != Separator {
				t.Fatal("factor not followed by separator")
			}
		}
	}
}

// TestFactorsAreBimaximal: no emitted factor can be extended in either
// direction while staying above τmin — this is what keeps X near the
// (1/τmin)² size bound.
func TestFactorsAreBimaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		s := randomString(rng, n, 3, 0.7)
		tau := 0.15
		tr, err := Transform(s, tau)
		if err != nil {
			t.Fatalf("Transform: %v", err)
		}
		for _, span := range tr.Spans {
			logp := 0.0
			for x := span.XStart; x < span.XEnd; x++ {
				logp += tr.LogP[x]
			}
			start := int(span.SStart)
			end := start + (span.XEnd - span.XStart)
			if start > 0 {
				for _, c := range s.Pos[start-1] {
					if prob.Exp(prob.Log(c.Prob)+logp) >= tau+1e-9 {
						t.Fatalf("factor at %d left-extendable with %q", start, c.Char)
					}
				}
			}
			if end < s.Len() {
				for _, c := range s.Pos[end] {
					if prob.Exp(logp+prob.Log(c.Prob)) >= tau+1e-9 {
						t.Fatalf("factor [%d,%d) right-extendable with %q", start, end, c.Char)
					}
				}
			}
		}
	}
}

func TestNoDuplicateFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		s := randomString(rng, 2+rng.Intn(12), 3, 0.8)
		tr, err := Transform(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, span := range tr.Spans {
			key := string(rune(span.SStart)) + "|" + string(tr.T[span.XStart:span.XEnd])
			if seen[key] {
				t.Fatalf("duplicate factor %q at %d", tr.T[span.XStart:span.XEnd], span.SStart)
			}
			seen[key] = true
		}
	}
}

func TestDeterministicString(t *testing.T) {
	// A fully deterministic string must transform into exactly one factor:
	// the string itself.
	s := ustring.Deterministic("banana")
	tr, err := Transform(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("expected 1 factor, got %d: %q", len(tr.Spans), tr.T)
	}
	if !bytes.Equal(tr.T[:6], []byte("banana")) {
		t.Fatalf("factor = %q", tr.T[:6])
	}
	if tr.MaxFactorLen != 6 {
		t.Errorf("MaxFactorLen = %d", tr.MaxFactorLen)
	}
}

func TestPaperRunningExample(t *testing.T) {
	// Appendix B / Figure 10: S of length 4 with Q.7/S.3, Q.3/P.7, P1,
	// A.4/F.3/P.2/Q.1. The paper transforms at some τc and obtains factors
	// such as QQP, QPPA, QPPF, QPA, QPF, TPA... (the figure's exact factor
	// set corresponds to a different string variant; what must hold for ours
	// is Lemma 2 at the chosen τ).
	s := &ustring.String{Pos: []ustring.Position{
		{{Char: 'Q', Prob: .7}, {Char: 'S', Prob: .3}},
		{{Char: 'Q', Prob: .3}, {Char: 'P', Prob: .7}},
		{{Char: 'P', Prob: 1}},
		{{Char: 'A', Prob: .4}, {Char: 'F', Prob: .3}, {Char: 'P', Prob: .2}, {Char: 'Q', Prob: .1}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := Transform(s, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// The figure's headline factor: "QPPA" with probability .7·.7·1·.4 = .196.
	if !occursInX(tr, []byte("QPPA"), 0) {
		t.Errorf("QPPA missing from X: %q", tr.T)
	}
	// "QQP" = .7·.3·1 = .21 ≥ .15 must appear; extending with A gives .084 <
	// .15 so QQPA must NOT appear.
	if !occursInX(tr, []byte("QQP"), 0) {
		t.Errorf("QQP missing from X: %q", tr.T)
	}
	if occursInX(tr, []byte("QQPA"), 0) {
		t.Errorf("QQPA (prob .084 < .15) must not appear in X: %q", tr.T)
	}
}

func TestTransformErrors(t *testing.T) {
	s := ustring.Deterministic("ab")
	for _, tau := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := Transform(s, tau); err == nil {
			t.Errorf("tau=%v accepted", tau)
		}
	}
	bad := &ustring.String{Pos: []ustring.Position{{{Char: 0, Prob: 1}}}}
	if _, err := Transform(bad, 0.5); err == nil {
		t.Error("separator byte in alphabet accepted")
	}
}

func TestExpansionBound(t *testing.T) {
	// The transformed length must respect the paper's O((1/τmin)²·n) bound;
	// verify with the generator's realistic workloads (constant 2 covers
	// separators).
	for _, tau := range []float64{0.1, 0.2, 0.4} {
		s := gen.Single(gen.Config{N: 2000, Theta: 0.4, Seed: 47})
		tr, err := Transform(s, tau)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * (1 / tau) * (1 / tau) * float64(s.Len())
		if float64(tr.Len()) > bound {
			t.Errorf("tau=%v: |X| = %d exceeds bound %v", tau, tr.Len(), bound)
		}
		t.Logf("tau=%v: expansion %.2f×", tau, tr.ExpansionFactor())
	}
}

func TestCorrelatedViabilityIsConservative(t *testing.T) {
	// A correlation-boosted match must still be inside X even when the base
	// probabilities alone would fall below τmin.
	s := &ustring.String{
		Pos: []ustring.Position{
			{{Char: 'e', Prob: .6}, {Char: 'f', Prob: .4}},
			{{Char: 'q', Prob: 1}},
			{{Char: 'z', Prob: .3}, {Char: 'w', Prob: .7}},
		},
		Corr: []ustring.Correlation{{
			At: 2, Char: 'z', DepAt: 0, DepChar: 'e',
			ProbWhenPresent: .9, ProbWhenAbsent: .1,
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrected probability of "eqz" = .6·1·.9 = .54; base = .6·1·.3 = .18.
	tau := 0.4
	if got := s.OccurrenceProb([]byte("eqz"), 0); math.Abs(got-0.54) > 1e-12 {
		t.Fatalf("OccurrenceProb(eqz) = %v", got)
	}
	tr, err := Transform(s, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !occursInX(tr, []byte("eqz"), 0) {
		t.Errorf("correlation-boosted match eqz missing from X: %q", tr.T)
	}
}

func TestEmptyString(t *testing.T) {
	tr, err := Transform(&ustring.String{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || len(tr.Spans) != 0 {
		t.Errorf("empty string produced factors: %q", tr.T)
	}
	if tr.ExpansionFactor() != 0 {
		t.Errorf("ExpansionFactor on empty = %v", tr.ExpansionFactor())
	}
}

func TestLargeRealisticTransform(t *testing.T) {
	if testing.Short() {
		t.Skip("large transform in -short mode")
	}
	s := gen.Single(gen.Config{N: 50000, Theta: 0.3, Seed: 53})
	tr, err := Transform(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no factors emitted")
	}
	// Spot-check Lemma 2 on sampled windows.
	pats := gen.Patterns(s, 200, 5, 59)
	for _, p := range pats {
		for _, start := range s.MatchPositions(p, 0.1) {
			if !occursInX(tr, p, start) {
				t.Fatalf("sampled valid match %q at %d missing from X", p, start)
			}
		}
	}
}

// transformDigest hashes every field of tr that a backend reads, so two
// transforms with equal digests are bit-for-bit identical.
func transformDigest(tr *Transformed) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(tr.T)))
	h.Write(tr.T)
	for _, lp := range tr.LogP {
		put(math.Float64bits(lp))
	}
	for _, p := range tr.Pos {
		put(uint64(int64(p)))
	}
	for _, g := range tr.SpanOf {
		put(uint64(int64(g)))
	}
	put(uint64(len(tr.Spans)))
	for _, sp := range tr.Spans {
		put(uint64(sp.XStart))
		put(uint64(sp.XEnd))
		put(uint64(int64(sp.SStart)))
	}
	put(uint64(tr.MaxFactorLen))
	put(math.Float64bits(tr.TauMin))
	put(uint64(tr.SourceLen))
	return hex.EncodeToString(h.Sum(nil))
}

// runningExample is the paper's running example (Appendix B, Figure 10).
func runningExample() *ustring.String {
	return &ustring.String{Pos: []ustring.Position{
		{{Char: 'Q', Prob: .7}, {Char: 'S', Prob: .3}},
		{{Char: 'Q', Prob: .3}, {Char: 'P', Prob: .7}},
		{{Char: 'P', Prob: 1}},
		{{Char: 'A', Prob: .4}, {Char: 'F', Prob: .3}, {Char: 'P', Prob: .2}, {Char: 'Q', Prob: .1}},
	}}
}

// TestTransformDigest pins Transform's output bit for bit. The digests were
// taken from the original map-and-clone implementation; any rewrite of the
// sweep must reproduce them unchanged.
func TestTransformDigest(t *testing.T) {
	want := map[string]string{
		"theta=0.1/tau=0.05/corr=0":   "106c197f024f358a07adca9b4bb05422d6186cca3b993d82c8c1f7010fef0412",
		"theta=0.1/tau=0.05/corr=250": "ce29fd2cc62780f3dc6264dfa5e2582e1afbfe088e71eca6d3428394813011ea",
		"theta=0.1/tau=0.1/corr=0":    "3b55047daddaf3bcea390eb70f7ff6e9d59229686bb828a73da1ae1b18cb8aef",
		"theta=0.1/tau=0.1/corr=250":  "5f7c0df2a945d9b92b74a5d90465571b1be9dbdc7cb66744b74bc6d9e50d830b",
		"theta=0.1/tau=0.2/corr=0":    "467028168f172b186d8a262c2255e0497e6084cd688ae4d1e242f2a5fec2ff4a",
		"theta=0.1/tau=0.2/corr=250":  "ada51a62651d0c4c0eefea5739ae8dc73e56400587397117ec0983fcba4217d9",
		"theta=0.3/tau=0.05/corr=0":   "66404a87d9e6b4854e50f849bec96b39bb1f40a817099750db038089af3d82f2",
		"theta=0.3/tau=0.05/corr=250": "8dae5496e9faa6ccb23271d25edd5f671f6ddfbdcda59b9fe19d60da5fd5b81c",
		"theta=0.3/tau=0.1/corr=0":    "3de88dfae589bcba14b2a3c086e307ddaff6d52a0f7547b69c6e0410eecb29c9",
		"theta=0.3/tau=0.1/corr=250":  "f3a2a277d0067042d2baacccf402b96f50d97dcab025561b1003f32139443c96",
		"theta=0.3/tau=0.2/corr=0":    "fdd3ef7500a4451cc983cd7acd2088ee0af76e487d0cecadfb17990485e074d2",
		"theta=0.3/tau=0.2/corr=250":  "6400278363fa4d41d4c125fbda4e1287e820a7246a809e9206e546bc68a2047d",
		"theta=0.5/tau=0.05/corr=0":   "0633bb7755f5fb0c4e0c5b6b03fee75971ffb4cc775200f73f3f49caf4c85518",
		"theta=0.5/tau=0.05/corr=250": "01bfa5280eef5aa1f5a2aad74a4158ed41df2ba866b31ef6d854eace95c03d8a",
		"theta=0.5/tau=0.1/corr=0":    "ce471ee7eae1caac1eb5aba4aabfe139bd697602070f9c4deea622abc11a105b",
		"theta=0.5/tau=0.1/corr=250":  "9e906cea4135f37f6d80e104a00becee2bccdef64a143026fa624d3f4a5a3a82",
		"theta=0.5/tau=0.2/corr=0":    "669595b2de565a736fcbccf7942e56766e0f31ede85b30eaa6253837b0cef3a0",
		"theta=0.5/tau=0.2/corr=250":  "84979b058d116413f5afb7e038f552d641a07f4075a008c781ee3326c62a4d9a",
		"running/tau=0.05":            "b57391faede7c3e7c6b3aa646e770eb9c9d59f0dd051aab3f07f53b1b5d8f30d",
		"running/tau=0.15":            "dc4a91c7da486fff888f9e496e2269acb7798cc0eeb20953ecbb22a003eb68ec",
		"running/tau=0.3":             "391d06acd42dda2015bc057ccec4f46a14bdb94dca4f3a20cd644d7dc47d0f04",
	}
	for _, theta := range []float64{0.1, 0.3, 0.5} {
		for _, tau := range []float64{0.05, 0.1, 0.2} {
			for _, corr := range []int{0, 250} {
				name := fmt.Sprintf("theta=%v/tau=%v/corr=%d", theta, tau, corr)
				t.Run(name, func(t *testing.T) {
					s := gen.Single(gen.Config{N: 1200, Theta: theta, Correlations: corr, Seed: 61})
					tr, err := Transform(s, tau)
					if err != nil {
						t.Fatal(err)
					}
					if got := transformDigest(tr); got != want[name] {
						t.Errorf("digest %s, want %s", got, want[name])
					}
				})
			}
		}
	}
	for _, tau := range []float64{0.05, 0.15, 0.3} {
		name := fmt.Sprintf("running/tau=%v", tau)
		t.Run(name, func(t *testing.T) {
			tr, err := Transform(runningExample(), tau)
			if err != nil {
				t.Fatal(err)
			}
			if got := transformDigest(tr); got != want[name] {
				t.Errorf("digest %s, want %s", got, want[name])
			}
		})
	}
}

// refWindow is referenceTransform's window: three owned slices per window.
type refWindow struct {
	start  int
	chars  []byte
	logps  []float64
	prefix []float64
	total  float64
}

func (w *refWindow) clone() *refWindow {
	return &refWindow{
		start:  w.start,
		chars:  append([]byte(nil), w.chars...),
		logps:  append([]float64(nil), w.logps...),
		prefix: append([]float64(nil), w.prefix...),
		total:  w.total,
	}
}

func (w *refWindow) suffixLog(k int) float64 { return w.total - w.prefix[k] }

// referenceTransform is the original map-and-clone sweep, kept as the oracle
// for FuzzTransform. It differs from the original only in its dedup key: the
// exact (start, chars) string instead of a 64-bit hash of it.
func referenceTransform(s *ustring.String, tauMin float64) (*Transformed, error) {
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

	logTau := math.Log(tauMin) - prob.Eps

	viability := func(i int, c ustring.Choice) float64 {
		p := c.Prob
		for _, corr := range s.Corr {
			if corr.At == i && corr.Char == c.Char {
				if corr.ProbWhenPresent > p {
					p = corr.ProbWhenPresent
				}
				if corr.ProbWhenAbsent > p {
					p = corr.ProbWhenAbsent
				}
			}
		}
		return prob.Log(p)
	}

	tr := &Transformed{TauMin: tauMin, SourceLen: s.Len()}

	var emitted []*refWindow
	var active []*refWindow
	windowKey := func(start int, chars []byte) string {
		return fmt.Sprintf("%d|%s", start, chars)
	}

	maxViability := make([]float64, s.Len())
	for i := range s.Pos {
		best := prob.LogZero
		for _, c := range s.Pos[i] {
			if v := viability(i, c); v > best {
				best = v
			}
		}
		maxViability[i] = best
	}

	emitIfBimaximal := func(w *refWindow) {
		if w.start > 0 && maxViability[w.start-1]+w.total >= logTau {
			return
		}
		emitted = append(emitted, w)
	}

	for j := 0; j < s.Len(); j++ {
		next := make([]*refWindow, 0, len(active)+len(s.Pos[j]))
		dedup := make(map[string]bool)
		push := func(w *refWindow) {
			h := windowKey(w.start, w.chars)
			if dedup[h] {
				return
			}
			dedup[h] = true
			next = append(next, w)
		}

		extendedLastChar := make(map[byte]bool)

		for _, w := range active {
			died := true
			fullExts := 0
			for _, c := range s.Pos[j] {
				lp := viability(j, c)
				if lp == prob.LogZero {
					continue
				}
				if w.total+lp >= logTau {
					fullExts++
					continue
				}
				k := sort.Search(len(w.chars), func(k int) bool {
					return w.suffixLog(k)+lp >= logTau
				})
				if k >= len(w.chars) || k == 0 {
					continue
				}
				nw := &refWindow{
					start: w.start + k,
					chars: append(append([]byte(nil), w.chars[k:]...), c.Char),
					logps: append(append([]float64(nil), w.logps[k:]...), lp),
				}
				nw.prefix = make([]float64, len(nw.chars)+1)
				for i, l := range nw.logps {
					nw.prefix[i+1] = nw.prefix[i] + l
				}
				nw.total = nw.prefix[len(nw.chars)]
				push(nw)
				extendedLastChar[c.Char] = true
			}
			for _, c := range s.Pos[j] {
				lp := viability(j, c)
				if lp == prob.LogZero || w.total+lp < logTau {
					continue
				}
				nw := w
				if fullExts > 1 {
					nw = w.clone()
				}
				nw.chars = append(nw.chars, c.Char)
				nw.logps = append(nw.logps, lp)
				nw.total += lp
				nw.prefix = append(nw.prefix, nw.total)
				push(nw)
				extendedLastChar[c.Char] = true
				died = false
			}
			if died {
				emitIfBimaximal(w)
			}
		}

		for _, c := range s.Pos[j] {
			lp := viability(j, c)
			if lp == prob.LogZero || lp < logTau || extendedLastChar[c.Char] {
				continue
			}
			push(&refWindow{
				start:  j,
				chars:  []byte{c.Char},
				logps:  []float64{lp},
				prefix: []float64{0, lp},
				total:  lp,
			})
		}
		active = next
	}
	for _, w := range active {
		emitIfBimaximal(w)
	}

	sort.Slice(emitted, func(a, b int) bool {
		wa, wb := emitted[a], emitted[b]
		if wa.start != wb.start {
			return wa.start < wb.start
		}
		return string(wa.chars) < string(wb.chars)
	})
	total := 0
	for _, w := range emitted {
		total += len(w.chars) + 1
	}
	tr.T = make([]byte, 0, total)
	tr.LogP = make([]float64, 0, total)
	tr.Pos = make([]int32, 0, total)
	tr.SpanOf = make([]int32, 0, total)
	for _, w := range emitted {
		if len(w.chars) > tr.MaxFactorLen {
			tr.MaxFactorLen = len(w.chars)
		}
		span := Span{XStart: len(tr.T), SStart: int32(w.start)}
		for k, c := range w.chars {
			base := s.ProbAt(w.start+k, c)
			tr.T = append(tr.T, c)
			tr.LogP = append(tr.LogP, prob.Log(base))
			tr.Pos = append(tr.Pos, int32(w.start+k))
			tr.SpanOf = append(tr.SpanOf, int32(len(tr.Spans)))
		}
		span.XEnd = len(tr.T)
		tr.Spans = append(tr.Spans, span)
		tr.T = append(tr.T, Separator)
		tr.LogP = append(tr.LogP, prob.LogZero)
		tr.Pos = append(tr.Pos, -1)
		tr.SpanOf = append(tr.SpanOf, -1)
	}
	return tr, nil
}

// fuzzString decodes fuzz bytes into a small uncertain string (at most 64
// positions over 'a'..'d', at most four correlations, duplicates allowed) and
// a threshold in [0.03, 1]. Byte 0 sets τmin, byte 1 the length; each
// position is a mask byte naming its characters followed by one weight byte
// per character; leftover bytes become correlations, four bytes each.
func fuzzString(data []byte) (*ustring.String, float64) {
	if len(data) < 2 {
		return &ustring.String{}, 1
	}
	tau := math.Min(1, float64(data[0]%98+3)/100)
	n := int(data[1]%64) + 1
	data = data[2:]
	s := &ustring.String{}
	for len(s.Pos) < n && len(data) > 0 {
		mask := data[0] & 0x0f
		if mask == 0 {
			mask = 1 << (data[0] >> 4 & 3)
		}
		data = data[1:]
		var pos ustring.Position
		total := 0.0
		for c := 0; c < 4; c++ {
			if mask&(1<<c) == 0 {
				continue
			}
			w := 1.0
			if len(data) > 0 {
				w, data = float64(data[0]), data[1:]
			}
			pos = append(pos, ustring.Choice{Char: byte('a' + c), Prob: w})
			total += w
		}
		acc := 0.0
		for k := range pos {
			p := 1 / float64(len(pos))
			if total > 0 {
				p = pos[k].Prob / total
			}
			if k == len(pos)-1 {
				p = 1 - acc
			}
			acc += p
			pos[k].Prob = p
		}
		s.Pos = append(s.Pos, pos)
	}
	for len(data) >= 4 && len(s.Corr) < 4 && s.Len() > 1 {
		at, dep := int(data[0])%s.Len(), int(data[2])%s.Len()
		choices := s.Pos[at]
		s.Corr = append(s.Corr, ustring.Correlation{
			At: at, Char: choices[int(data[1])%len(choices)].Char,
			DepAt: dep, DepChar: s.Pos[dep][0].Char,
			ProbWhenPresent: float64(data[3]) / 255, ProbWhenAbsent: float64(255-data[3]) / 255,
		})
		data = data[4:]
	}
	return s, tau
}

// sameAsReference fails t unless Transform and referenceTransform agree bit
// for bit on s at tau.
func sameAsReference(t *testing.T, s *ustring.String, tau float64) {
	t.Helper()
	got, err := Transform(s, tau)
	want, werr := referenceTransform(s, tau)
	if (err == nil) != (werr == nil) {
		t.Fatalf("tau=%v: error %v, reference %v", tau, err, werr)
	}
	if err != nil {
		return
	}
	if transformDigest(got) != transformDigest(want) {
		t.Fatalf("tau=%v: output differs from reference\nS: %s %+v\nT:   %q\nref: %q",
			tau, s.Format(), s.Corr, got.T, want.T)
	}
}

// TestTransformMatchesReference compares Transform with the original sweep
// on generated strings, correlated ones included.
func TestTransformMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 720; trial++ {
		s := randomString(rng, 1+rng.Intn(40), 4, []float64{0.2, 0.5, 0.8, 1.0}[trial%4])
		for c := rng.Intn(4); c > 0 && s.Len() > 1; c-- {
			at := rng.Intn(s.Len())
			dep := (at + 1 + rng.Intn(s.Len()-1)) % s.Len()
			s.Corr = append(s.Corr, ustring.Correlation{
				At: at, Char: s.Pos[at][rng.Intn(len(s.Pos[at]))].Char,
				DepAt: dep, DepChar: s.Pos[dep][0].Char,
				ProbWhenPresent: rng.Float64(), ProbWhenAbsent: rng.Float64(),
			})
		}
		sameAsReference(t, s, []float64{0.05, 0.1, 0.2, 0.4, 1}[trial%5])
	}
}

func FuzzTransform(f *testing.F) {
	f.Add([]byte{10, 8, 0x03, 7, 3, 0x01, 0x0f, 1, 2, 3, 4, 0x05, 9, 9, 0x06, 1, 1, 2, 1, 0, 200})
	f.Add([]byte{0, 63, 0x0f, 1, 1, 1, 1, 0x0f, 1, 1, 1, 1, 0x0f, 1, 1, 1, 1, 0x0f, 1, 1, 1, 1})
	f.Add([]byte{97, 4, 0x01, 0x02, 0x04, 0x08})
	f.Add([]byte{20, 5, 0x03, 0, 5, 0x03, 5, 0, 0x0c, 1, 1, 0x01, 0x03, 2, 2, 0, 1, 0, 1, 255, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, tau := fuzzString(data)
		sameAsReference(t, s, tau)
	})
}

// transformDoc is the benchmark document: 1 200 positions at θ 0.3, the
// length of the backend benchmark's documents.
func transformDoc(corr int) *ustring.String {
	return gen.Single(gen.Config{N: 1200, Theta: 0.3, Correlations: corr, Seed: 71})
}

// TestTransformAllocs bounds the allocations of one transform. The sweep
// reuses its scratch windows, so the count is set by the output and the
// peak number of live windows, not by the number of positions.
func TestTransformAllocs(t *testing.T) {
	s := transformDoc(0)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Transform(s, 0.1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per transform", allocs)
	if allocs > 3000 {
		t.Errorf("%v allocations per transform, want ≤ 3000", allocs)
	}
}

func BenchmarkTransform(b *testing.B) {
	for _, corr := range []int{0, 250} {
		s := transformDoc(corr)
		b.Run(fmt.Sprintf("corr=%d", corr), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Transform(s, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
