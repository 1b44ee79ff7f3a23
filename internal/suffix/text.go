package suffix

import "fmt"

// Text bundles a deterministic string with its suffix array and answers the
// suffix-range queries (Section 3.4) every index in this repository is
// built on. A Text from New also keeps the inverse and LCP arrays; one from
// NewSearch or FromParts holds only what a range query reads.
type Text struct {
	data []byte
	sa   []int32
	rank []int32 // rank[i] = position of suffix i in sa; nil unless from New
	lcp  []int32 // lcp[i] = lcp(sa[i-1], sa[i]); lcp[0] = 0; nil unless from New

	// The two-byte bucket directory of Manber and Myers. code maps a byte
	// to 1 + its rank among the text's distinct bytes, 0 for a byte the
	// text lacks; w is 1 + the number of distinct bytes. A suffix's key is
	// code(first byte)·w + code(second byte), with code 0 for a missing
	// second byte, so keys follow suffix-array order, and dir[k] is the
	// first suffix-array row whose key is at least k (dir[w²] = n). dir is
	// nil when the table would cost more than a byte per text position.
	w    int
	code *[256]uint8
	dir  []int32
}

// New builds the full structure for text, inverse and LCP arrays included.
// The byte slice is retained; the caller must not mutate it afterwards.
func New(text []byte) *Text {
	t, rank, lcp := build(text)
	t.rank, t.lcp = rank, lcp
	return t
}

// NewSearch builds the structure a suffix-range query reads — the text,
// its suffix array and the bucket directory — and returns the LCP array
// beside it, for a caller that needs it only while building. Neither the
// LCP nor the inverse array stays in the Text.
func NewSearch(text []byte) (*Text, []int32) {
	t, _, lcp := build(text)
	return t, lcp
}

// build is New's work, with the inverse and LCP arrays handed back.
func build(text []byte) (t *Text, rank, lcp []int32) {
	t = &Text{data: text, sa: Array(text)}
	rank = make([]int32, len(text))
	for i, p := range t.sa {
		rank[p] = int32(i)
	}
	lcp = kasai(text, t.sa, rank)
	if code, w, ok := directoryCodes(text); ok {
		t.w, t.code, t.dir = w, code, countDir(text, code, w)
	}
	return t, rank, lcp
}

// FromParts assembles a search-only Text over a stored text, suffix array
// and bucket directory (empty when the text gets none), all retained. Every
// suffix-array entry must be a text position, the directory must be the
// shape New would build for this text, non-decreasing from 0 to n, and
// every row of a two-byte bucket must start at least two bytes before the
// end, so that no range query over the result can index outside its
// arrays. Whether sa really sorts the suffixes is not checked: a wrong
// array answers wrongly, never out of bounds.
func FromParts(text []byte, sa, dir []int32) (*Text, error) {
	n := len(text)
	if len(sa) != n {
		return nil, fmt.Errorf("suffix: %d suffix-array entries for a %d-byte text", len(sa), n)
	}
	for i, p := range sa {
		if uint32(p) >= uint32(n) {
			return nil, fmt.Errorf("suffix: suffix-array entry %d is %d, outside the text", i, p)
		}
	}
	t := &Text{data: text, sa: sa}
	code, w, ok := directoryCodes(text)
	if !ok {
		if len(dir) != 0 {
			return nil, fmt.Errorf("suffix: %d directory entries for a text that gets none", len(dir))
		}
		return t, nil
	}
	if len(dir) != w*w+1 {
		return nil, fmt.Errorf("suffix: %d directory entries, want %d", len(dir), w*w+1)
	}
	prev := int32(0)
	for k, v := range dir {
		if v < prev || int(v) > n {
			return nil, fmt.Errorf("suffix: directory entry %d is %d, after %d in a %d-byte text", k, v, prev, n)
		}
		prev = v
	}
	if dir[0] != 0 || int(dir[len(dir)-1]) != n {
		return nil, fmt.Errorf("suffix: directory spans [%d, %d], want [0, %d]", dir[0], dir[len(dir)-1], n)
	}
	// A range search compares a row of a two-byte bucket from its third
	// byte on, so the row's suffix must have two.
	for k := 1; k < w*w; k++ {
		if k%w == 0 {
			continue // a one-byte suffix's bucket
		}
		for _, p := range sa[dir[k]:dir[k+1]] {
			if int(p)+2 > n {
				return nil, fmt.Errorf("suffix: suffix-array entry %d is in a two-byte bucket of a %d-byte text", p, n)
			}
		}
	}
	t.w, t.code, t.dir = w, code, dir
	return t, nil
}

// directoryCodes numbers the text's distinct bytes for the bucket
// directory and reports whether the text gets one: when its (w²+1) four-byte
// entries fit in n bytes — w² ≤ n/4 — and the text has fewer than 256
// distinct bytes, so every code fits a byte.
func directoryCodes(text []byte) (*[256]uint8, int, bool) {
	var code [256]uint8
	for _, c := range text {
		code[c] = 1
	}
	w := 1
	for c := range code {
		if code[c] != 0 {
			if w > 255 {
				return nil, 0, false
			}
			code[c] = uint8(w)
			w++
		}
	}
	if w*w > len(text)/4 {
		return nil, 0, false
	}
	return &code, w, true
}

// countDir builds the bucket directory with one counting pass over the text.
func countDir(text []byte, code *[256]uint8, w int) []int32 {
	n := len(text)
	dir := make([]int32, w*w+1)
	for i, c := range text {
		k := int(code[c]) * w
		if i+1 < n {
			k += int(code[text[i+1]])
		}
		dir[k+1]++
	}
	for k := 1; k < len(dir); k++ {
		dir[k] += dir[k-1]
	}
	return dir
}

// kasai computes the LCP array in O(n) with Kasai's algorithm.
func kasai(text []byte, sa, rank []int32) []int32 {
	n := len(text)
	lcp := make([]int32, n)
	h := 0
	for i := 0; i < n; i++ {
		r := int(rank[i])
		if r == 0 {
			h = 0
			continue
		}
		j := int(sa[r-1])
		for i+h < n && j+h < n && text[i+h] == text[j+h] {
			h++
		}
		lcp[r] = int32(h)
		if h > 0 {
			h--
		}
	}
	return lcp
}

// Len returns the text length.
func (t *Text) Len() int { return len(t.data) }

// Data returns the underlying text (shared, read-only).
func (t *Text) Data() []byte { return t.data }

// SA returns the suffix array (shared, read-only).
func (t *Text) SA() []int32 { return t.sa }

// Rank returns the inverse suffix array (shared, read-only); nil unless the
// Text came from New.
func (t *Text) Rank() []int32 { return t.rank }

// LCP returns the LCP array (shared, read-only); nil unless the Text came
// from New.
func (t *Text) LCP() []int32 { return t.lcp }

// Dir returns the bucket directory (shared, read-only); nil when the text
// gets none.
func (t *Text) Dir() []int32 { return t.dir }

// Suffix returns the suffix of the text starting at position i.
func (t *Text) Suffix(i int32) []byte { return t.data[i:] }

// Range returns the suffix range [lo, hi] (inclusive, positions in the
// suffix array) of all suffixes having p as a prefix, and ok=false if p does
// not occur. This is the paper's suffix range [sp, ep]. With the bucket
// directory, patterns of one or two bytes are a table lookup and longer ones
// a binary search inside their two-byte bucket; without it, a binary search
// over the whole suffix array: O(|p| log n).
func (t *Text) Range(p []byte) (lo, hi int, ok bool) {
	lo, hi, ok, _ = t.RangeCount(p)
	return lo, hi, ok
}

// RangeCount is Range plus the number of binary-search probes made — the
// comparison count cost attribution charges as suffix steps. A directory
// lookup makes no probe.
func (t *Text) RangeCount(p []byte) (lo, hi int, ok bool, probes int) {
	if len(p) == 0 {
		if len(t.data) == 0 {
			return 0, -1, false, 0
		}
		return 0, len(t.sa) - 1, true, 0
	}
	// Every row of [from, to) starts with p[:d].
	from, to, d := 0, len(t.sa), 0
	if t.dir != nil {
		k := int(t.code[p[0]]) * t.w
		if k == 0 {
			return 0, -1, false, 0
		}
		if len(p) == 1 {
			return int(t.dir[k]), int(t.dir[k+t.w]) - 1, true, 0
		}
		c := int(t.code[p[1]])
		if c == 0 || t.dir[k+c] == t.dir[k+c+1] {
			return 0, -1, false, 0
		}
		from, to, d = int(t.dir[k+c]), int(t.dir[k+c+1]), 2
		if len(p) == 2 {
			return from, to - 1, true, 0
		}
	}
	q := p[d:]
	// lo = first row whose suffix is ≥ p.
	lo = from + searchSA(to-from, func(i int) bool {
		probes++
		return t.compareAt(from+i, d, q) >= 0
	})
	if lo == to || t.compareAt(lo, d, q) != 0 {
		return 0, -1, false, probes
	}
	// hi = last row with prefix p = first row of [lo, to) past p's block, -1.
	hi = lo + searchSA(to-lo, func(i int) bool {
		probes++
		return t.compareAt(lo+i, d, q) > 0
	}) - 1
	return lo, hi, true, probes
}

// compareAt compares the at most len(q) bytes of row i's suffix that
// follow its first d with q, as bytes.Compare would.
func (t *Text) compareAt(i, d int, q []byte) int {
	s := t.data[int(t.sa[i])+d:]
	for k, c := range q {
		if k == len(s) {
			return -1
		}
		if s[k] != c {
			if s[k] < c {
				return -1
			}
			return 1
		}
	}
	return 0
}

// searchSA is sort.Search without the import, kept local so the hot path
// inlines.
func searchSA(n int, f func(int) bool) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of occurrences of p in the text.
func (t *Text) Count(p []byte) int {
	lo, hi, ok := t.Range(p)
	if !ok {
		return 0
	}
	return hi - lo + 1
}

// Locate returns the starting positions of every occurrence of p, in suffix
// array order (not text order).
func (t *Text) Locate(p []byte) []int32 {
	lo, hi, ok := t.Range(p)
	if !ok {
		return nil
	}
	out := make([]int32, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, t.sa[i])
	}
	return out
}

// Bytes reports the memory footprint of the structure: the text, the
// suffix array, the bucket directory and, when held, the inverse and LCP
// arrays.
func (t *Text) Bytes() int {
	b := len(t.data) + len(t.sa)*4 + len(t.rank)*4 + len(t.lcp)*4 + len(t.dir)*4
	if t.code != nil {
		b += len(t.code)
	}
	return b
}
