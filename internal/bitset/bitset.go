// Package bitset provides the fixed-size bit vectors the index engine uses
// for its per-level duplicate-elimination marks (Section 5.2): one bit per
// suffix-array entry per indexed length, so the marks cost N·log N bits
// rather than words.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-capacity bit vector.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set capable of holding n bits, all initially zero.
func New(n int) *Set {
	return &Set{words: make([]uint64, Words(n)), n: n}
}

// Words returns the number of 64-bit words a Set of n bits occupies.
func Words(n int) int { return (n + 63) / 64 }

// FromWords returns a Set of n bits over words, which it retains; words
// must hold Words(n) entries.
func FromWords(words []uint64, n int) (*Set, error) {
	if len(words) != Words(n) {
		return nil, fmt.Errorf("bitset: %d words for %d bits, want %d", len(words), n, Words(n))
	}
	return &Set{words: words, n: n}, nil
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s *Set) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Bytes reports the memory footprint.
func (s *Set) Bytes() int { return len(s.words) * 8 }
