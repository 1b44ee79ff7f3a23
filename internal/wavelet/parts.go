package wavelet

import (
	"errors"
	"fmt"

	"repro/internal/rank"
)

// ErrBadParts reports structurally invalid inputs to FromParts.
var ErrBadParts = errors.New("wavelet: invalid tree parts")

// Alphabet returns the effective alphabet (code → symbol). Read-only: the
// slice aliases the tree's storage; it is exposed for envelope
// serialization.
func (t *Tree) Alphabet() []byte { return t.alphabet }

// Levels returns the per-level bit vectors, root first. Read-only.
func (t *Tree) Levels() []*rank.Bits { return t.levels }

// FromParts reassembles a Tree from its persisted parts — typically bit
// vectors whose storage is mmap'd — without rebuilding. counts[code] is the
// number of occurrences of alphabet[code]; the code table and the descent
// tables are recomputed from the alphabet and the counts (derived state,
// never persisted) without reading a level word.
//
// The alphabet must be strictly ascending (this is how New emits it, and
// it implies uniqueness), every symbol must occur and the counts must sum
// to n, the level count must equal ⌈log₂ σ⌉, and every level must cover
// exactly n positions; those invariants are what the query code relies on
// to stay in bounds over hostile data.
func FromParts(n int, alphabet []byte, counts []int32, levels []*rank.Bits) (*Tree, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrBadParts, n)
	}
	for i := 1; i < len(alphabet); i++ {
		if alphabet[i] <= alphabet[i-1] {
			return nil, fmt.Errorf("%w: alphabet not strictly ascending at %d", ErrBadParts, i)
		}
	}
	if len(counts) != len(alphabet) {
		return nil, fmt.Errorf("%w: %d symbol counts for alphabet size %d", ErrBadParts, len(counts), len(alphabet))
	}
	total := 0
	for code, k := range counts {
		if k < 1 {
			return nil, fmt.Errorf("%w: symbol %d occurs %d times", ErrBadParts, alphabet[code], k)
		}
		total += int(k)
	}
	if total != n {
		return nil, fmt.Errorf("%w: symbol counts sum to %d, want %d", ErrBadParts, total, n)
	}
	depth := 0
	for 1<<depth < len(alphabet) {
		depth++
	}
	if len(levels) != depth {
		return nil, fmt.Errorf("%w: %d levels for alphabet size %d, want %d",
			ErrBadParts, len(levels), len(alphabet), depth)
	}
	for d, lv := range levels {
		if lv == nil || lv.Len() != n {
			return nil, fmt.Errorf("%w: level %d covers %d positions, want %d",
				ErrBadParts, d, lv.Len(), n)
		}
	}
	t := &Tree{n: n, alphabet: alphabet, levels: levels, depth: depth}
	for i := range t.code {
		t.code[i] = -1
	}
	for code, c := range alphabet {
		t.code[c] = int16(code)
	}
	t.buildSteps(counts)
	return t, nil
}
