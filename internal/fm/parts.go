package fm

import (
	"errors"
	"fmt"

	"repro/internal/rank"
	"repro/internal/wavelet"
)

// ErrBadParts reports structurally invalid inputs to FromParts.
var ErrBadParts = errors.New("fm: invalid index parts")

// BWT returns the wavelet tree over the Burrows–Wheeler transform.
// Read-only; exposed for envelope serialization.
func (ix *Index) BWT() *wavelet.Tree { return ix.bwt }

// Counts returns the cumulative symbol counts (258 entries). The slice
// aliases the index; read-only.
func (ix *Index) Counts() []int32 { return ix.counts[:] }

// SampledRows returns the bit vector marking sampled rows. Read-only.
func (ix *Index) SampledRows() *rank.Bits { return ix.sampled }

// Samples returns the sampled SA' values in row order. Read-only.
func (ix *Index) Samples() []int32 { return ix.samples }

// SampleRate returns the suffix-array sampling interval.
func (ix *Index) SampleRate() int { return ix.rate }

// FromParts reassembles an Index from persisted parts — typically wavelet
// levels and sample tables whose storage is mmap'd — without running the
// suffix-array construction. The BWT's tree is assembled here because its
// per-symbol counts are differences of the cumulative counts, which spares
// it reading a level word. The invariants checked (row counts, monotone
// cumulative counts summing to n+1 that agree with the alphabet, sample
// table sized to the sampled-row popcount) are exactly what the
// backward-search and LF-walk code needs to stay in bounds over hostile
// data; sample *values* are not scanned (that would fault the whole table)
// and are range-clamped at use.
func FromParts(alphabet []byte, levels []*rank.Bits, counts []int32, sampled *rank.Bits, samples []int32, rate, n int) (*Index, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative text length %d", ErrBadParts, n)
	}
	if rate < 1 {
		return nil, fmt.Errorf("%w: sample rate %d", ErrBadParts, rate)
	}
	if sampled == nil || sampled.Len() != n+1 {
		return nil, fmt.Errorf("%w: sampled bit vector covers %d rows, want %d",
			ErrBadParts, sampled.Len(), n+1)
	}
	if len(counts) != 258 {
		return nil, fmt.Errorf("%w: %d cumulative counts, want 258", ErrBadParts, len(counts))
	}
	if counts[0] != 0 || counts[257] != int32(n+1) {
		return nil, fmt.Errorf("%w: cumulative counts span [%d, %d], want [0, %d]",
			ErrBadParts, counts[0], counts[257], n+1)
	}
	for c := 1; c < 258; c++ {
		if counts[c] < counts[c-1] {
			return nil, fmt.Errorf("%w: cumulative counts not monotonic at symbol %d", ErrBadParts, c)
		}
	}
	if sampled.Ones() < 1 {
		return nil, fmt.Errorf("%w: no sampled rows", ErrBadParts)
	}
	if len(samples) != sampled.Ones() {
		return nil, fmt.Errorf("%w: %d samples for %d sampled rows",
			ErrBadParts, len(samples), sampled.Ones())
	}
	occ := make([]int32, len(alphabet))
	for code, c := range alphabet {
		occ[code] = counts[int(c)+1] - counts[c]
	}
	bwt, err := wavelet.FromParts(n+1, alphabet, occ, levels)
	if err != nil {
		return nil, fmt.Errorf("%w: BWT: %w", ErrBadParts, err)
	}
	ix := &Index{bwt: bwt, sampled: sampled, samples: samples, rate: rate, n: n}
	copy(ix.counts[:], counts)
	return ix, nil
}
