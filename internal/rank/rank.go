// Package rank provides succinct bit vectors with O(1) rank and O(log n)
// select — the building block under the wavelet tree and FM-index
// (internal/wavelet, internal/fm) that implement the paper's Section 8.7
// choice of a compressed suffix array for suffix-range retrieval.
//
// The layout is the classic two-level scheme: 64-bit words grouped into
// 512-bit blocks, with a cumulative popcount per block. Space overhead is
// ~12.5% over the raw bits.
package rank

import "math/bits"

const (
	wordBits  = 64
	blockSize = 8 // words per block → 512-bit blocks
)

// Bits is an immutable bit vector with rank support.
type Bits struct {
	words  []uint64
	blocks []int32 // blocks[b] = number of 1s before block b
	n      int
	ones   int
}

// Builder accumulates bits before freezing them into a Bits.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a builder with capacity hint n bits.
func NewBuilder(n int) *Builder {
	return &Builder{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// Append adds one bit.
func (b *Builder) Append(bit bool) {
	if b.n%wordBits == 0 {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[b.n/wordBits] |= 1 << (uint(b.n) % wordBits)
	}
	b.n++
}

// Build freezes the builder.
func (b *Builder) Build() *Bits {
	v := &Bits{words: b.words, n: b.n}
	nb := (len(v.words) + blockSize - 1) / blockSize
	v.blocks = make([]int32, nb+1)
	count := int32(0)
	for blk := 0; blk < nb; blk++ {
		v.blocks[blk] = count
		for w := blk * blockSize; w < (blk+1)*blockSize && w < len(v.words); w++ {
			count += int32(bits.OnesCount64(v.words[w]))
		}
	}
	v.blocks[nb] = count
	v.ones = int(count)
	return v
}

// FromBools builds a Bits from a bool slice (test convenience).
func FromBools(bs []bool) *Bits {
	b := NewBuilder(len(bs))
	for _, bit := range bs {
		b.Append(bit)
	}
	return b.Build()
}

// Len returns the number of bits.
func (v *Bits) Len() int { return v.n }

// Ones returns the total number of set bits.
func (v *Bits) Ones() int { return v.ones }

// Get returns bit i.
func (v *Bits) Get(i int) bool {
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Rank1 returns the number of set bits strictly before position i, with i
// clamped into [0, Len]: the fused step at i-1 plus that position's own bit,
// which never touches a word past the end.
func (v *Bits) Rank1(i int) int {
	i = min(i, v.n)
	if i <= 0 {
		return 0
	}
	ones, bit := v.Rank1Get(i - 1)
	return ones + bit
}

// Rank1Get is Rank1(i) and Get(i) fused (0 ≤ i < Len; bit is 0 or 1): one
// block-count load and one pass over i's 512-bit block answer both — the
// step a wavelet-tree descent takes once per level.
//
// How many whole words precede i inside its block is as good as random to a
// branch predictor, and a loop over them mispredicts its exit on nearly
// every call; so a full block counts all seven candidate words and masks
// out (with the sign of j-k) those at or after i's. Only a short last block
// takes the loop.
func (v *Bits) Rank1Get(i int) (ones, bit int) {
	word := uint(i) / wordBits
	blk := word / blockSize
	ones = int(v.blocks[blk])
	if base := blk * blockSize; base+blockSize <= uint(len(v.words)) {
		ws := (*[blockSize]uint64)(v.words[base:])
		k := int(word % blockSize)
		ones += bits.OnesCount64(ws[0])&((0-k)>>63) + bits.OnesCount64(ws[1])&((1-k)>>63) +
			bits.OnesCount64(ws[2])&((2-k)>>63) + bits.OnesCount64(ws[3])&((3-k)>>63) +
			bits.OnesCount64(ws[4])&((4-k)>>63) + bits.OnesCount64(ws[5])&((5-k)>>63) +
			bits.OnesCount64(ws[6])&((6-k)>>63)
	} else {
		for _, w := range v.words[base:word] {
			ones += bits.OnesCount64(w)
		}
	}
	w := v.words[word]
	sh := uint(i) % wordBits
	return ones + bits.OnesCount64(w&(1<<sh-1)), int(w >> sh & 1)
}

// AnySet reports whether a bit in [lo, hi) is set (0 ≤ lo, hi ≤ Len): one
// read per word the interval touches, no rank.
func (v *Bits) AnySet(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << (uint(lo) % wordBits)
	hiMask := ^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits)
	if first == last {
		return v.words[first]&loMask&hiMask != 0
	}
	if v.words[first]&loMask != 0 || v.words[last]&hiMask != 0 {
		return true
	}
	for _, w := range v.words[first+1 : last] {
		if w != 0 {
			return true
		}
	}
	return false
}

// Select1 returns the position of the (k+1)-th set bit (k ≥ 0), or -1 when
// there are not that many. O(log n) by binary search over rank.
func (v *Bits) Select1(k int) int {
	if k < 0 || k >= v.ones {
		return -1
	}
	lo, hi := 0, v.n
	// Invariant: Rank1(lo) ≤ k < Rank1(hi).
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Rank1(mid+1) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Bytes reports the memory footprint.
func (v *Bits) Bytes() int { return len(v.words)*8 + len(v.blocks)*4 }
