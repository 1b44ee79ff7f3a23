package fm

import (
	"testing"
)

func TestFromPartsRoundTrip(t *testing.T) {
	text := []byte("abracadabra\x00banana\x00mississippi\x00abracadabra")
	orig, err := New(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	re, err := FromParts(orig.BWT().Alphabet(), orig.BWT().Levels(), orig.Counts(), orig.SampledRows(),
		orig.Samples(), orig.SampleRate(), orig.Len())
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	for _, p := range []string{"a", "ana", "abra", "ssi", "zz", "", "\x00"} {
		lo1, hi1, ok1 := orig.Range([]byte(p))
		lo2, hi2, ok2 := re.Range([]byte(p))
		if lo1 != lo2 || hi1 != hi2 || ok1 != ok2 {
			t.Fatalf("Range(%q): (%d,%d,%v) vs (%d,%d,%v)", p, lo2, hi2, ok2, lo1, hi1, ok1)
		}
		if ok1 {
			for j := lo1; j <= hi1; j++ {
				if orig.Locate(j) != re.Locate(j) {
					t.Fatalf("Locate(%d) mismatch for %q", j, p)
				}
			}
		}
	}
}

func TestFromPartsValidation(t *testing.T) {
	orig, err := New([]byte("banana"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromParts(orig.BWT().Alphabet(), orig.BWT().Levels(), orig.Counts(), orig.SampledRows(), orig.Samples(), 0, orig.Len()); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := FromParts(orig.BWT().Alphabet(), orig.BWT().Levels(), orig.Counts(), orig.SampledRows(), orig.Samples(), 2, orig.Len()+1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromParts(orig.BWT().Alphabet(), orig.BWT().Levels(), orig.Counts()[:10], orig.SampledRows(), orig.Samples(), 2, orig.Len()); err == nil {
		t.Error("short counts accepted")
	}
	bad := append([]int32(nil), orig.Counts()...)
	bad[10] = bad[11] + 5
	if _, err := FromParts(orig.BWT().Alphabet(), orig.BWT().Levels(), bad, orig.SampledRows(), orig.Samples(), 2, orig.Len()); err == nil {
		t.Error("non-monotonic counts accepted")
	}
	if _, err := FromParts(orig.BWT().Alphabet(), orig.BWT().Levels(), orig.Counts(), orig.SampledRows(), orig.Samples()[:1], 2, orig.Len()); err == nil {
		t.Error("sample table size mismatch accepted")
	}
	// An alphabet the cumulative counts do not tally: 'z' never occurs.
	alien := append(append([]byte(nil), orig.BWT().Alphabet()...), 'z'+1)
	if _, err := FromParts(alien, orig.BWT().Levels(), orig.Counts(), orig.SampledRows(), orig.Samples(), 2, orig.Len()); err == nil {
		t.Error("alphabet disagreeing with counts accepted")
	}
}
