package suffix

// Text bundles a deterministic string with its suffix array, inverse array
// and LCP array, and answers the suffix-range queries (Section 3.4) every
// index in this repository is built on.
type Text struct {
	data []byte
	sa   []int32
	rank []int32 // rank[i] = position of suffix i in sa
	lcp  []int32 // lcp[i] = lcp(sa[i-1], sa[i]); lcp[0] = 0

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

// New builds the full structure for text. The byte slice is retained; the
// caller must not mutate it afterwards.
func New(text []byte) *Text {
	t := &Text{data: text, sa: Array(text)}
	n := len(text)
	t.rank = make([]int32, n)
	for i, p := range t.sa {
		t.rank[p] = int32(i)
	}
	t.lcp = kasai(text, t.sa, t.rank)
	t.buildDir()
	return t
}

// buildDir builds the bucket directory with one counting pass over the
// text, when its (w²+1) four-byte entries fit in n bytes — w² ≤ n/4 — and
// the text has fewer than 256 distinct bytes, so every code fits a byte.
func (t *Text) buildDir() {
	var code [256]uint8
	for _, c := range t.data {
		code[c] = 1
	}
	w := 1
	for c := range code {
		if code[c] != 0 {
			if w > 255 {
				return
			}
			code[c] = uint8(w)
			w++
		}
	}
	n := len(t.data)
	if w*w > n/4 {
		return
	}
	dir := make([]int32, w*w+1)
	for i, c := range t.data {
		k := int(code[c]) * w
		if i+1 < n {
			k += int(code[t.data[i+1]])
		}
		dir[k+1]++
	}
	for k := 1; k < len(dir); k++ {
		dir[k] += dir[k-1]
	}
	t.w, t.code, t.dir = w, &code, dir
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

// Rank returns the inverse suffix array (shared, read-only).
func (t *Text) Rank() []int32 { return t.rank }

// LCP returns the LCP array (shared, read-only).
func (t *Text) LCP() []int32 { return t.lcp }

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

// Bytes reports the memory footprint of the structure including the text
// and the bucket directory.
func (t *Text) Bytes() int {
	b := len(t.data) + len(t.sa)*4 + len(t.rank)*4 + len(t.lcp)*4 + len(t.dir)*4
	if t.code != nil {
		b += len(t.code)
	}
	return b
}
