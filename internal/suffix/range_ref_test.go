package suffix

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// referenceRangeCount is the suffix-range search as it stood before the
// bucket directory, kept verbatim: two binary searches over the whole
// suffix array. The directory must reproduce its (lo, hi, ok) exactly.
func referenceRangeCount(t *Text, p []byte) (lo, hi int, ok bool, probes int) {
	if len(p) == 0 {
		if len(t.data) == 0 {
			return 0, -1, false, 0
		}
		return 0, len(t.sa) - 1, true, 0
	}
	n := len(t.sa)
	// lo = first suffix ≥ p.
	lo = searchSA(n, func(i int) bool {
		probes++
		return bytes.Compare(referenceSuffixPrefix(t, i, len(p)), p) >= 0
	})
	if lo == n || !bytes.HasPrefix(t.Suffix(t.sa[lo]), p) {
		return 0, -1, false, probes
	}
	// hi = last suffix with prefix p = first suffix > p-prefixed block, -1.
	hi = searchSA(n, func(i int) bool {
		probes++
		return bytes.Compare(referenceSuffixPrefix(t, i, len(p)), p) > 0
	}) - 1
	return lo, hi, true, probes
}

// referenceSuffixPrefix returns at most m leading bytes of the i-th
// smallest suffix.
func referenceSuffixPrefix(t *Text, i, m int) []byte {
	s := t.data[t.sa[i]:]
	if len(s) > m {
		return s[:m]
	}
	return s
}

// checkRange compares RangeCount with the reference for p over tx.
func checkRange(t *testing.T, tx *Text, p []byte) {
	t.Helper()
	lo, hi, ok, _ := tx.RangeCount(p)
	wlo, whi, wok, _ := referenceRangeCount(tx, p)
	if lo != wlo || hi != whi || ok != wok {
		t.Fatalf("text %q (directory %v) pattern %q: RangeCount = (%d, %d, %v), reference (%d, %d, %v)",
			tx.data, tx.dir != nil, p, lo, hi, ok, wlo, whi, wok)
	}
}

// randomText draws n bytes from the first sigma letters of alphabet, with
// 0x00 separators at about one position in twelve when sep is set.
func randomText(rng *rand.Rand, n int, alphabet []byte, sigma int, sep bool) []byte {
	text := make([]byte, n)
	for i := range text {
		if sep && rng.Intn(12) == 0 {
			continue
		}
		text[i] = alphabet[rng.Intn(sigma)]
	}
	return text
}

// TestRangeMatchesReference holds the directory search to the reference on
// random texts with 1–30 distinct letters, with and without separators, for
// patterns of 1–8 bytes drawn from the text and from outside it; a
// 230-letter alphabet and tiny texts take the no-directory path.
func TestRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	letters := make([]byte, 0, 255)
	for c := 1; c < 256; c++ {
		letters = append(letters, byte(c))
	}
	rng.Shuffle(len(letters), func(a, b int) { letters[a], letters[b] = letters[b], letters[a] })
	type shape struct{ n, sigma int }
	var shapes []shape
	for sigma := 1; sigma <= 30; sigma++ {
		shapes = append(shapes, shape{200 + rng.Intn(4000), sigma})
	}
	shapes = append(shapes, shape{3000, 230}, shape{1, 1}, shape{2, 2}, shape{5, 3}, shape{16, 2}, shape{40, 4})
	dirs := 0
	for _, sh := range shapes {
		for _, sep := range []bool{false, true} {
			text := randomText(rng, sh.n, letters, sh.sigma, sep)
			tx := New(text)
			if tx.dir != nil {
				dirs++
				if tx.dir[len(tx.dir)-1] != int32(len(text)) {
					t.Fatalf("directory of %d positions ends at %d", len(text), tx.dir[len(tx.dir)-1])
				}
			}
			for q := 0; q < 200; q++ {
				m := 1 + rng.Intn(8)
				var p []byte
				if x := rng.Intn(len(text)); q%4 != 0 && x+m <= len(text) {
					p = bytes.Clone(text[x : x+m]) // occurs
				} else {
					p = randomText(rng, m, letters, min(sh.sigma+1, len(letters)), false)
				}
				if q%7 == 0 {
					p[rng.Intn(m)] = letters[len(letters)-1] // a byte the text lacks
				}
				checkRange(t, tx, p)
			}
			checkRange(t, tx, nil)
			checkRange(t, tx, text)
		}
	}
	if dirs == 0 || dirs == 2*len(shapes) {
		t.Fatalf("%d of %d texts built a directory: both paths must be exercised", dirs, 2*len(shapes))
	}
}

// TestDirectoryBound: the directory is built only while it costs at most a
// byte per text position, and Bytes counts it.
func TestDirectoryBound(t *testing.T) {
	text := bytes.Repeat([]byte("ACGT"), 25) // w = 5: 25 ≤ 100/4
	tx := New(text)
	if tx.dir == nil {
		t.Fatal("no directory over a 100-byte four-letter text")
	}
	if got, want := tx.Bytes(), len(text)*13+len(tx.dir)*4+256; got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	if New(text[:96]).dir != nil {
		t.Fatal("directory built over 96 bytes, where 25 entries exceed n/4")
	}
}

// FuzzRange holds the directory search to the reference on arbitrary texts
// and patterns.
func FuzzRange(f *testing.F) {
	f.Add([]byte("banana\x00bandana\x00ananas"), []byte("ana"))
	f.Add([]byte("ACGTACGTTGCAACGT\x00ACGGTACCAGT\x00TTTTGGGGCCCCAAAA"), []byte("GT"))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), []byte("aaa"))
	f.Fuzz(func(t *testing.T, text, p []byte) {
		if len(text) > 1<<12 || len(p) > 64 {
			return
		}
		checkRange(t, New(text), p)
	})
}

// TestFromParts: a Text assembled from NewSearch's stored arrays answers
// every range like New's, and arrays a range query could index outside —
// a suffix-array entry past the text, a directory of the wrong shape or
// out of order, a two-byte bucket row at the last byte — are rejected.
func TestFromParts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	text := randomText(rng, 4000, []byte("ACGT"), 4, true)
	full := New(text)
	search, lcp := NewSearch(text)
	if search.Rank() != nil || search.LCP() != nil || len(lcp) != len(text) || search.Dir() == nil {
		t.Fatal("NewSearch kept its build-only arrays or built no directory")
	}
	tx, err := FromParts(text, search.SA(), search.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if tx.Bytes() != search.Bytes() {
		t.Errorf("Bytes %d, NewSearch's %d", tx.Bytes(), search.Bytes())
	}
	for m := 1; m <= 6; m++ {
		for range 20 {
			i := rng.Intn(len(text) - m)
			p := text[i : i+m]
			if bytes.IndexByte(p, 0) >= 0 {
				continue
			}
			lo, hi, ok := tx.Range(p)
			wlo, whi, wok := full.Range(p)
			if lo != wlo || hi != whi || ok != wok {
				t.Fatalf("Range(%q) = %d %d %v, New's %d %d %v", p, lo, hi, ok, wlo, whi, wok)
			}
		}
	}

	clone := func(v []int32) []int32 { return append([]int32(nil), v...) }
	sa, dir := search.SA(), search.Dir()
	tail := slices.Index(sa, int32(len(text)-1))
	twoByte := clone(sa)
	// Swap the last position into a two-byte bucket's first row.
	for k := 1; k < len(dir)-1; k++ {
		if w := search.w; k%w != 0 && dir[k] < dir[k+1] {
			j := int(dir[k])
			twoByte[j], twoByte[tail] = twoByte[tail], twoByte[j]
			break
		}
	}
	outside := clone(sa)
	outside[7] = int32(len(text))
	short := clone(dir)[:len(dir)-1]
	unordered := clone(dir)
	unordered[len(dir)/2] = int32(len(text))
	unordered[len(dir)/2+1] = 0
	for name, parts := range map[string][2][]int32{
		"suffix array entry past the text": {outside, dir},
		"suffix array one entry short":     {sa[1:], dir},
		"directory one entry short":        {sa, short},
		"directory out of order":           {sa, unordered},
		"two-byte bucket row at the end":   {twoByte, dir},
	} {
		if _, err := FromParts(text, parts[0], parts[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromParts(text[:40], sa[:40], nil); err == nil {
		t.Error("suffix array entries past a shortened text: accepted")
	}
}
