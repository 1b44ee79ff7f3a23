package wavelet

import (
	"testing"

	"repro/internal/rank"
)

func TestFromPartsRoundTrip(t *testing.T) {
	data := []byte("abracadabra\x00mississippi\x00banana")
	orig := New(data)
	re, err := FromParts(orig.Len(), orig.Alphabet(), symbolCounts(orig, data), orig.Levels())
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	for i := range data {
		if re.Access(i) != data[i] {
			t.Fatalf("Access(%d) = %q, want %q", i, re.Access(i), data[i])
		}
	}
	for _, c := range []byte{'a', 'b', 'i', 's', 0, 'z'} {
		for i := 0; i <= len(data); i++ {
			if re.Rank(c, i) != orig.Rank(c, i) {
				t.Fatalf("Rank(%q, %d) mismatch", c, i)
			}
		}
	}
}

func TestFromPartsValidation(t *testing.T) {
	orig := New([]byte("abc"))
	ones := []int32{1, 1, 1}
	if _, err := FromParts(-1, orig.Alphabet(), ones, orig.Levels()); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := FromParts(3, []byte{'b', 'a', 'c'}, ones, orig.Levels()); err == nil {
		t.Error("unsorted alphabet accepted")
	}
	if _, err := FromParts(3, orig.Alphabet(), ones, nil); err == nil {
		t.Error("missing levels accepted")
	}
	if _, err := FromParts(3, nil, nil, nil); err == nil {
		t.Error("empty alphabet with positions accepted")
	}
	if _, err := FromParts(3, orig.Alphabet(), ones[:2], orig.Levels()); err == nil {
		t.Error("short symbol counts accepted")
	}
	if _, err := FromParts(3, orig.Alphabet(), []int32{3, 0, 0}, orig.Levels()); err == nil {
		t.Error("absent alphabet symbol accepted")
	}
	if _, err := FromParts(3, orig.Alphabet(), []int32{2, 1, 1}, orig.Levels()); err == nil {
		t.Error("symbol counts not summing to n accepted")
	}
	short := rank.NewBuilder(2)
	short.Append(true)
	short.Append(false)
	if _, err := FromParts(3, orig.Alphabet(), ones, []*rank.Bits{orig.Levels()[0], short.Build()}); err == nil {
		t.Error("short level accepted")
	}
}
