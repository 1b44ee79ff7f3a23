// Package suffix provides the deterministic-string substrate of the indexes:
// linear-time suffix array construction (SA-IS), the Kasai LCP array, and
// pattern suffix-range search (the paper's Section 3.4 toolbox).
//
// The suffix array is built from scratch with the induced-sorting algorithm
// of Nong, Zhang and Chan; no use is made of the standard library's
// index/suffixarray so the whole stack stays self-contained and auditable.
//
// Suffix-range search starts from Manber and Myers' bucket table: New adds
// a two-byte directory — the first suffix-array row of every pair of
// leading bytes, (w²+1) int32 entries for w = 1 + the text's distinct
// bytes — whenever it fits in one byte per text position (w² ≤ n/4).
// Patterns of one or two bytes are then a table lookup with no comparison,
// and longer ones a binary search inside their bucket that compares from
// the third byte. Without the directory the search is a binary search over
// the whole suffix array. Text.Bytes counts the directory.
package suffix

// Array builds the suffix array of text: a permutation sa of [0, len(text))
// such that text[sa[i]:] < text[sa[i+1]:] lexicographically. An implicit
// sentinel smaller than every byte terminates the text, so shorter prefixes
// sort before their extensions.
func Array(text []byte) []int32 {
	n := len(text)
	if n == 0 {
		return nil
	}
	// Shift bytes by +1 so value 0 is free for the sentinel.
	s := make([]int32, n+1)
	for i, c := range text {
		s[i] = int32(c) + 1
	}
	s[n] = 0
	sa := make([]int32, n+1)
	sais(s, sa, 257)
	return sa[1:] // drop the sentinel suffix, which always sorts first
}

// sais computes the suffix array of s (which must end with a unique smallest
// sentinel value 0) into sa, for alphabet size sigma.
func sais(s, sa []int32, sigma int) {
	n := len(s)
	switch n {
	case 0:
		return
	case 1:
		sa[0] = 0
		return
	case 2:
		// s[1] is the sentinel, smallest.
		sa[0], sa[1] = 1, 0
		return
	}

	// Classify suffix types: sType[i] = true means suffix i is S-type
	// (smaller than suffix i+1).
	sType := make([]bool, n)
	sType[n-1] = true
	for i := n - 2; i >= 0; i-- {
		if s[i] < s[i+1] || (s[i] == s[i+1] && sType[i+1]) {
			sType[i] = true
		}
	}
	isLMS := func(i int32) bool {
		return i > 0 && sType[i] && !sType[i-1]
	}

	bkt := make([]int32, sigma)
	fillBuckets := func(ends bool) {
		for i := range bkt {
			bkt[i] = 0
		}
		for _, c := range s {
			bkt[c]++
		}
		var sum int32
		for i := range bkt {
			sum += bkt[i]
			if ends {
				bkt[i] = sum
			} else {
				bkt[i] = sum - bkt[i]
			}
		}
	}

	induce := func() {
		// Induce L-type suffixes left to right.
		fillBuckets(false)
		for i := 0; i < n; i++ {
			j := sa[i] - 1
			if sa[i] > 0 && !sType[j] {
				sa[bkt[s[j]]] = j
				bkt[s[j]]++
			}
		}
		// Induce S-type suffixes right to left.
		fillBuckets(true)
		for i := n - 1; i >= 0; i-- {
			j := sa[i] - 1
			if sa[i] > 0 && sType[j] {
				bkt[s[j]]--
				sa[bkt[s[j]]] = j
			}
		}
	}

	// Stage 1: approximately sort the LMS suffixes by induced sorting from an
	// arbitrary placement at bucket ends.
	for i := range sa {
		sa[i] = -1
	}
	fillBuckets(true)
	for i := int32(1); i < int32(n); i++ {
		if isLMS(i) {
			bkt[s[i]]--
			sa[bkt[s[i]]] = i
		}
	}
	induce()

	// Compact the sorted LMS positions to the front of sa.
	nLMS := 0
	for i := 0; i < n; i++ {
		if isLMS(sa[i]) {
			sa[nLMS] = sa[i]
			nLMS++
		}
	}
	for i := nLMS; i < n; i++ {
		sa[i] = -1
	}

	// Name each LMS substring; equal substrings share a name so the reduced
	// problem preserves suffix order.
	name := int32(0)
	prev := int32(-1)
	for i := 0; i < nLMS; i++ {
		pos := sa[i]
		if prev < 0 || !lmsEqual(s, sType, prev, pos) {
			name++
		}
		prev = pos
		sa[nLMS+int(pos)/2] = name - 1
	}

	// Compact names into the reduced string s1 (kept at the tail of sa).
	s1 := sa[n-nLMS:]
	j := n - 1
	for i := n - 1; i >= nLMS; i-- {
		if sa[i] >= 0 {
			sa[j] = sa[i]
			j--
		}
	}

	// Solve the reduced problem.
	sa1 := sa[:nLMS]
	if int(name) < nLMS {
		s1copy := make([]int32, nLMS)
		copy(s1copy, s1)
		sub := make([]int32, nLMS)
		sais(s1copy, sub, int(name))
		copy(sa1, sub)
	} else {
		// All names unique: the order is the names themselves.
		for i := 0; i < nLMS; i++ {
			sa1[s1[i]] = int32(i)
		}
	}

	// Recover LMS positions in text order.
	lmsPos := make([]int32, 0, nLMS)
	for i := int32(1); i < int32(n); i++ {
		if isLMS(i) {
			lmsPos = append(lmsPos, i)
		}
	}
	for i := 0; i < nLMS; i++ {
		sa1[i] = lmsPos[sa1[i]]
	}

	// Stage 2: place the now exactly sorted LMS suffixes at bucket ends and
	// induce the full order.
	for i := nLMS; i < n; i++ {
		sa[i] = -1
	}
	sorted := make([]int32, nLMS)
	copy(sorted, sa1[:nLMS])
	for i := range sa[:nLMS] {
		sa[i] = -1
	}
	fillBuckets(true)
	for i := nLMS - 1; i >= 0; i-- {
		p := sorted[i]
		bkt[s[p]]--
		sa[bkt[s[p]]] = p
	}
	induce()
}

// lmsEqual reports whether the LMS substrings starting at a and b are equal
// (same characters and same types up to and including the next LMS position).
func lmsEqual(s []int32, sType []bool, a, b int32) bool {
	if a == b {
		return true
	}
	n := int32(len(s))
	// The sentinel's LMS substring is unique.
	if a == n-1 || b == n-1 {
		return false
	}
	for i := int32(0); ; i++ {
		aLMS := a+i > 0 && sType[a+i] && !sType[a+i-1]
		bLMS := b+i > 0 && sType[b+i] && !sType[b+i-1]
		if i > 0 && aLMS && bLMS {
			return true
		}
		if aLMS != bLMS || s[a+i] != s[b+i] || sType[a+i] != sType[b+i] {
			return false
		}
	}
}
