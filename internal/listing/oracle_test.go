package listing

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/ustring"
)

// TestCorrelatedZeroBaseListing: a character with base probability 0 that a
// correlation makes probable keeps the windows over it alive in the listing
// index, as in the exact backends: "AA" occurs in d0 at position 1 with
// probability .5 (the B at position 1 turns into A exactly when position 0
// is A).
func TestCorrelatedZeroBaseListing(t *testing.T) {
	docs := []*ustring.String{{
		Pos: []ustring.Position{
			{{Char: 'A', Prob: 0.5}, {Char: 'B', Prob: 0.5}},
			{{Char: 'A', Prob: 0}, {Char: 'B', Prob: 1}},
			{{Char: 'A', Prob: 1}},
		},
		Corr: []ustring.Correlation{{At: 1, Char: 'A', DepAt: 0, DepChar: 'A', ProbWhenPresent: 1, ProbWhenAbsent: 0}},
	}}
	ix, err := Build(docs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("AA")
	want := baseline.ListNaive(docs, p, 0.2)
	if !reflect.DeepEqual(want, []int{0}) {
		t.Fatalf("oracle lists %v, want [0]", want)
	}
	if got, err := ix.List(p, 0.2); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("List(%q, 0.2) = %v (%v), oracle %v", p, got, err, want)
	}
}

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

// decodeDoc decodes one uncertain string of up to 64 positions over the
// first sigma letters, zero-probability choices and up to 3 correlations
// allowed.
func decodeDoc(b *fuzzBytes, sigma int) *ustring.String {
	n := 1 + int(b.next())%64
	s := &ustring.String{Pos: make([]ustring.Position, n)}
	for i := range s.Pos {
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
		s.Pos[i] = pos
	}
	for range int(b.next()) % 4 {
		at, dep := int(b.next())%n, int(b.next())%n
		s.Corr = append(s.Corr, ustring.Correlation{
			At:              at,
			Char:            s.Pos[at][int(b.next())%len(s.Pos[at])].Char,
			DepAt:           dep,
			DepChar:         s.Pos[dep][int(b.next())%len(s.Pos[dep])].Char,
			ProbWhenPresent: b.frac(),
			ProbWhenAbsent:  b.frac(),
		})
	}
	return s
}

// FuzzListOracle holds the listing index to the index-free oracle
// (baseline.ListNaive) on 1–3 small fuzzed documents with correlations, a
// fuzzed τmin, τ ≥ τmin and pattern. A case with some window within 1e-9 of
// τ is skipped: there the index's prefix-sum arithmetic and the oracle's
// direct product may round to opposite sides of the cut.
func FuzzListOracle(f *testing.F) {
	f.Add([]byte{1, 2, 2, 1, 128, 128, 1, 0, 255, 0, 255, 1, 0, 0, 0, 255, 0, 14, 28, 1, 0, 0})
	f.Add([]byte{2, 3, 40, 3, 7, 200, 50, 9, 100, 100, 1, 2, 3, 4, 5, 0, 0, 0, 30, 90, 2, 6, 1, 2, 0, 1})
	f.Add([]byte{0, 4, 63, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 2, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		docs := make([]*ustring.String, 1+int(b.next())%3)
		sigma := 1 + int(b.next())%4
		for d := range docs {
			docs[d] = decodeDoc(&b, sigma)
			if docs[d].Validate() != nil {
				return
			}
		}
		tauMin := 0.05 + 0.9*b.frac()
		tau := tauMin + (1-tauMin)*b.frac()
		p := make([]byte, 1+int(b.next())%12)
		for i := range p {
			p[i] = byte('A' + int(b.next())%sigma)
		}
		for _, doc := range docs {
			for i := 0; i+len(p) <= doc.Len(); i++ {
				if math.Abs(doc.OccurrenceProb(p, i)-tau) <= 1e-9 {
					return
				}
			}
		}
		ix, err := Build(docs, tauMin)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		got, err := ix.List(p, tau)
		if err != nil {
			t.Fatal(err)
		}
		if want := baseline.ListNaive(docs, p, tau); !reflect.DeepEqual(got, want) {
			t.Fatalf("List(%q, %v) over %d documents (τmin %v): index %v, oracle %v",
				p, tau, len(docs), tauMin, got, want)
		}
	})
}
