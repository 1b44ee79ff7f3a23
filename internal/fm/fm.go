// Package fm implements an FM-index — the compressed suffix array the
// paper's Section 8.7 uses in place of a generalized suffix tree for
// suffix-range retrieval ("we use a compressed suffix array (CSA) of t …
// that occupies N log σ + o(N log σ) + O(N) bits and retrieves the suffix
// range of query string p in O(p) time").
//
// The index stores the Burrows–Wheeler transform of the text in a wavelet
// tree (internal/wavelet over internal/rank), the per-symbol cumulative
// counts, and a sampled suffix array for locating. Backward search answers
// Range in O(m log σ); Locate walks the LF mapping to the nearest sample.
// It is the suffix-range substrate of the serving tier's compressed index
// backend (core.CompressedIndex).
//
// The index needs a sentinel symbol smaller than every text symbol, and the
// transformed texts of this repository already use 0x00 as the factor
// separator. Symbols are therefore shifted up by one internally
// (0x00 → 1, …, 0xFE → 255) so the sentinel can be 0; the only rejected
// input byte is 0xFF.
package fm

import (
	"errors"

	"repro/internal/rank"
	"repro/internal/suffix"
	"repro/internal/wavelet"
)

// ErrByteFF reports an input text using the reserved byte 0xFF.
var ErrByteFF = errors.New("fm: text contains reserved byte 0xFF")

// DefaultSampleRate is the suffix array sampling interval: one stored
// position per 4 text positions, so Locate walks ≤ 3 LF steps (1.5 on
// average) at a cost of 8 sample bits + 1.125 marker bits per text position.
const DefaultSampleRate = 4

// Index is the FM-index of a text.
type Index struct {
	bwt     *wavelet.Tree
	counts  [258]int32 // counts[c] = number of shifted symbols < c
	sampled *rank.Bits // marks sampled rows
	samples []int32    // SA' values at sampled rows, in row order
	rate    int
	n       int // original text length (rows = n+1 including sentinel)
}

// New builds the index. sampleRate ≤ 0 selects DefaultSampleRate.
func New(text []byte, sampleRate int) (*Index, error) {
	if sampleRate <= 0 {
		sampleRate = DefaultSampleRate
	}
	for _, c := range text {
		if c == 0xFF {
			return nil, ErrByteFF
		}
	}
	n := len(text)
	ix := &Index{rate: sampleRate, n: n}

	// Rows of the conceptual sorted rotation matrix of text+sentinel:
	// row 0 is the sentinel suffix; row r>0 is the suffix at sa[r-1].
	sa := suffix.Array(text)

	// BWT over shifted symbols: bwtRow[r] = shifted(text2[SA'[r]-1]).
	bwtData := make([]byte, n+1)
	saPrime := func(r int) int {
		if r == 0 {
			return n
		}
		return int(sa[r-1])
	}
	for r := 0; r <= n; r++ {
		p := saPrime(r)
		if p == 0 {
			bwtData[r] = 0 // sentinel: predecessor of the full-text suffix
		} else {
			bwtData[r] = text[p-1] + 1
		}
	}
	ix.bwt = wavelet.New(bwtData)

	// Cumulative counts over shifted symbols (sentinel = 0 occurs once).
	var freq [257]int32
	freq[0] = 1
	for _, c := range text {
		freq[int(c)+1]++
	}
	var sum int32
	for c := 0; c < 257; c++ {
		ix.counts[c] = sum
		sum += freq[c]
	}
	ix.counts[257] = sum

	// Sample SA': every rate-th text position, plus position 0 (required to
	// terminate every LF walk).
	b := rank.NewBuilder(n + 1)
	for r := 0; r <= n; r++ {
		p := saPrime(r)
		b.Append(p%sampleRate == 0 || p == 0)
	}
	ix.sampled = b.Build()
	ix.samples = make([]int32, 0, ix.sampled.Ones())
	for r := 0; r <= n; r++ {
		p := saPrime(r)
		if p%sampleRate == 0 || p == 0 {
			ix.samples = append(ix.samples, int32(p))
		}
	}
	return ix, nil
}

// Len returns the original text length.
func (ix *Index) Len() int { return ix.n }

// Range returns the suffix range [lo, hi] of p in the (implicit) suffix
// array of the text — the same coordinates as suffix.Text.Range — via
// backward search. ok is false when p does not occur.
func (ix *Index) Range(p []byte) (lo, hi int, ok bool) {
	lo, hi, ok, _ = ix.RangeCount(p)
	return lo, hi, ok
}

// RangeCount is Range plus the number of backward-search steps taken — the
// count cost attribution charges as suffix steps. Every step after the
// first is one two-boundary wavelet-tree descent. The first needs none:
// from all n+1 rows, the rows of the last pattern symbol c are exactly
// [counts[c], counts[c+1]), so it reads two cumulative counts; it still
// counts as one step.
func (ix *Index) RangeCount(p []byte) (lo, hi int, ok bool, steps int) {
	if len(p) == 0 {
		if ix.n == 0 {
			return 0, -1, false, 0
		}
		return 0, ix.n - 1, true, 0
	}
	// Row interval [l, r) over the n+1 rows.
	l, r := 0, ix.n+1
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == 0xFF {
			return 0, -1, false, steps
		}
		c := p[i] + 1
		base := int(ix.counts[c])
		steps++
		if i == len(p)-1 {
			l, r = base, int(ix.counts[c+1])
		} else {
			rl, rr := ix.bwt.Rank2(c, l, r)
			l, r = base+rl, base+rr
		}
		// With a well-formed index l and r stay within [0, n+1]; over
		// corrupt (e.g. unverified mapped) data the ranks can push them
		// outside the row range, so clamp before they are used as row
		// indexes anywhere downstream.
		l, r = max(l, 0), min(r, ix.n+1)
		if l >= r {
			return 0, -1, false, steps
		}
	}
	// Rows r>0 map to suffix array positions r-1; row 0 (the sentinel)
	// cannot be in the interval since p is non-empty.
	return l - 1, r - 2, true, steps
}

// Count returns the number of occurrences of p.
func (ix *Index) Count(p []byte) int {
	lo, hi, ok := ix.Range(p)
	if !ok {
		return 0
	}
	return hi - lo + 1
}

// lf is the last-to-first mapping on rows: the BWT holds exactly the
// symbols counts tallies, so the tree's leaf order is the first column and
// one descent lands on the target row. The result is clamped to the valid
// row range: corrupt level bits must not drive the LF walk out of bounds
// (the walk's hop bound then terminates it).
func (ix *Index) lf(row int) int {
	v := ix.bwt.LF(row)
	if uint(v) > uint(ix.n) {
		v = 0
	}
	return v
}

// Locate returns the text position of the suffix at suffix-array position j
// (the value suffix.Text would report as SA()[j]), by LF-walking to the
// nearest sampled row.
func (ix *Index) Locate(j int) int32 {
	v, _ := ix.LocateCount(j)
	return v
}

// LocateCount is Locate plus the number of LF-mapping hops walked to the
// nearest sampled row (≤ the sample rate) — the per-candidate wavelet cost.
func (ix *Index) LocateCount(j int) (int32, int) {
	row := j + 1 // suffix array position → row
	steps := 0
	// One fused read per row: the sampled row's sample index comes with
	// the bit that ends the walk.
	idx, sampled := ix.sampled.Rank1Get(row)
	for sampled == 0 {
		row = ix.lf(row)
		steps++
		// A well-formed index reaches a sample within the sample rate;
		// corrupt mapped data could cycle forever, so bound the walk by
		// the row count and bail with a (wrong, but in-range) answer.
		if steps > ix.n+1 {
			return 0, steps
		}
		idx, sampled = ix.sampled.Rank1Get(row)
	}
	if idx >= len(ix.samples) {
		return 0, steps
	}
	v := int(ix.samples[idx]) + steps
	// SA' values live on text+sentinel of length n+1.
	if v > ix.n {
		v -= ix.n + 1
	}
	if v < 0 || v > ix.n {
		v = 0 // corrupt sample value; keep the result in text range
	}
	return int32(v), steps
}

// Bytes reports the memory footprint — the number the paper's Section 8.7
// space accounting calls ~2.5N words in practice for its CSA.
func (ix *Index) Bytes() int {
	return ix.bwt.Bytes() + ix.sampled.Bytes() + len(ix.samples)*4 + 258*4
}
