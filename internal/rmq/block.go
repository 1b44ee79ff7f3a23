package rmq

import "fmt"

// BlockSize is the decomposition width of the Block structure. Partial-block
// queries scan at most 2×BlockSize accessor calls, so queries are O(1) for
// any fixed size; 64 keeps the index below 2 bits per element in practice.
const BlockSize = 64

// Block is a Fischer–Heun-style block-decomposed range-maximum structure
// over a value accessor. It stores only block argmax positions plus a sparse
// table over blocks; the values themselves are recomputed through the
// accessor. This mirrors the paper's construction, which builds RMQ_i over
// the Ci array and then discards Ci (Section 4.2): with an accessor the Ci
// array never needs to exist at all.
type Block struct {
	vals   Values
	n      int
	argmax []int32          // argmax position of each block
	sparse *Sparse[float64] // over block max values
}

// Blocks returns the number of blocks a Block over n values has: the
// length of its argmax array.
func Blocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// NewBlock builds the structure over n values reachable through vals.
func NewBlock(n int, vals Values) *Block {
	b := &Block{vals: vals, n: n}
	if n == 0 {
		return b
	}
	b.argmax = make([]int32, Blocks(n))
	maxv := make([]float64, len(b.argmax))
	for blk := range b.argmax {
		lo := blk * BlockSize
		hi := min(lo+BlockSize, n)
		best := lo
		bv := vals(lo)
		for k := lo + 1; k < hi; k++ {
			if v := vals(k); v > bv {
				best, bv = k, v
			}
		}
		b.argmax[blk] = int32(best)
		maxv[blk] = bv
	}
	b.sparse = NewSparseMax(maxv)
	return b
}

// FromArgmax rebuilds the structure NewBlock(n, vals) built, from its
// stored Argmax, which it retains: one accessor call per block and the
// sparse table over the results. Every entry must lie inside its own
// block — what keeps Max inside the range it was asked about — but is not
// checked to be the block's maximum.
func FromArgmax(n int, vals Values, argmax []int32) (*Block, error) {
	if len(argmax) != Blocks(n) {
		return nil, fmt.Errorf("rmq: %d block argmaxes for %d values, want %d", len(argmax), n, Blocks(n))
	}
	b := &Block{vals: vals, n: n}
	if n == 0 {
		return b, nil
	}
	maxv := make([]float64, len(argmax))
	for blk, j := range argmax {
		if lo := blk * BlockSize; int(j) < lo || int(j) >= min(lo+BlockSize, n) {
			return nil, fmt.Errorf("rmq: argmax %d of block %d lies outside it", j, blk)
		}
		maxv[blk] = vals(int(j))
	}
	b.argmax = argmax
	b.sparse = NewSparseMax(maxv)
	return b, nil
}

// Argmax returns the argmax position of every block (shared, read-only).
func (b *Block) Argmax() []int32 { return b.argmax }

// Len returns the number of positions covered.
func (b *Block) Len() int { return b.n }

// Max returns the position of the maximum value in the closed range [i, j],
// leftmost on ties, or -1 for an invalid range.
func (b *Block) Max(i, j int) int {
	if i < 0 || j >= b.n || i > j {
		return -1
	}
	bi, bj := i/BlockSize, j/BlockSize
	best := -1
	var bv float64
	consider := func(k int) {
		if k < 0 {
			return
		}
		v := b.vals(k)
		if best == -1 || v > bv || (v == bv && k < best) {
			best, bv = k, v
		}
	}
	if bi == bj {
		for k := i; k <= j; k++ {
			consider(k)
		}
		return best
	}
	// Head partial block.
	for k := i; k < (bi+1)*BlockSize; k++ {
		consider(k)
	}
	// Middle whole blocks via the sparse table.
	if bi+1 <= bj-1 {
		if blk := b.sparse.Query(bi+1, bj-1); blk >= 0 {
			consider(int(b.argmax[blk]))
		}
	}
	// Tail partial block.
	for k := bj * BlockSize; k <= j; k++ {
		consider(k)
	}
	return best
}

// Bytes reports the index memory footprint (excluding the values, which are
// recomputed through the accessor).
func (b *Block) Bytes() int {
	total := len(b.argmax) * 4
	if b.sparse != nil {
		total += b.sparse.Bytes() + b.sparse.Len()*8
	}
	return total
}
