// Package wavelet implements a wavelet tree over byte sequences: access,
// rank and the FM-index's LF step for every symbol in O(log σ) time using
// the succinct bit vectors of internal/rank. It is the symbol-rank engine of
// the FM-index (internal/fm), the compressed suffix array the paper's
// Section 8.7 uses for suffix-range retrieval.
//
// The tree is built over the effective alphabet (the distinct symbols
// present), so depth is ⌈log₂ σ_eff⌉ rather than 8, and space is
// n·⌈log₂ σ_eff⌉ bits plus rank overhead.
package wavelet

import "repro/internal/rank"

// Tree is an immutable wavelet tree.
type Tree struct {
	n int
	// alphabet maps code → symbol; codes are dense [0, σ).
	alphabet []byte
	code     [256]int16 // symbol → code, -1 if absent
	// levels[d] is the concatenated bit vector of level d.
	levels []*rank.Bits
	depth  int
	// step and leaf are the descent tables (see buildSteps): derived state,
	// never persisted.
	step, leaf []int32
}

// New builds the tree for data. The slice is not retained.
func New(data []byte) *Tree {
	t := &Tree{n: len(data)}
	for i := range t.code {
		t.code[i] = -1
	}
	var occ [256]int32
	for _, c := range data {
		occ[c]++
	}
	var counts []int32 // per code
	for c := 0; c < 256; c++ {
		if occ[c] > 0 {
			t.code[c] = int16(len(t.alphabet))
			t.alphabet = append(t.alphabet, byte(c))
			counts = append(counts, occ[c])
		}
	}
	sigma := len(t.alphabet)
	t.depth = 0
	for 1<<t.depth < sigma {
		t.depth++
	}
	t.buildSteps(counts)
	if t.depth == 0 {
		// Single-symbol (or empty) alphabet: no bits needed.
		return t
	}

	// Levelwise construction: at level d the sequence is stably grouped by
	// the top d bits of the code (nodes in prefix order); the level's bit
	// vector holds code bit (depth-1-d) in that order. The regrouping for
	// the next level is a stable counting sort by the top d+1 bits —
	// partitioning within each node, never across nodes.
	codes := make([]uint16, len(data))
	for i, c := range data {
		codes[i] = uint16(t.code[c])
	}
	cur := codes
	next := make([]uint16, len(data))
	for d := 0; d < t.depth; d++ {
		shift := uint(t.depth - 1 - d)
		b := rank.NewBuilder(len(cur))
		for _, c := range cur {
			b.Append(c>>shift&1 == 1)
		}
		t.levels = append(t.levels, b.Build())
		nb := 1 << uint(d+1)
		count := make([]int, nb+1)
		for _, c := range cur {
			count[int(c>>shift)+1]++
		}
		for i := 1; i <= nb; i++ {
			count[i] += count[i-1]
		}
		for _, c := range cur {
			next[count[c>>shift]] = c
			count[c>>shift]++
		}
		cur, next = next, cur
	}
	return t
}

// buildSteps derives the descent tables from per-code symbol counts alone —
// no level bit is read, so assembling a tree over mapped levels faults no
// page. Nodes are heap-indexed: the root is 1, node h's zeros-child is 2h and
// its ones-child 2h+1, and the leaf of code c is 1<<depth | c.
//
// A position i of node h whose bit is b sits, one level down, at
// step[2h+b] plus the number of b bits before i in the whole level:
// step[2h] is the ones before h's start and step[2h+1] is the ones-child's
// start minus that, both constants of the tree. leaf[c] is where code c's
// run starts in leaf order (leaf[1<<depth] = n).
func (t *Tree) buildSteps(counts []int32) {
	size := 1 << uint(t.depth)
	tab := make([]int32, 3*size+1) // one allocation: step, then leaf
	t.step, t.leaf = tab[:2*size], tab[2*size:]
	sum := int32(0)
	for c := range t.leaf {
		t.leaf[c] = sum
		if c < len(counts) {
			sum += counts[c]
		}
	}
	for d := 0; d < t.depth; d++ {
		span := size >> uint(d+1) // leaves under a child of a level-d node
		ones := int32(0)
		for h := 1 << uint(d); h < 2<<uint(d); h++ {
			first := (2*h + 1 - 2<<uint(d)) * span // first leaf of the ones-child
			t.step[2*h] = ones
			t.step[2*h+1] = t.leaf[first] - ones
			ones += t.leaf[first+span] - t.leaf[first]
		}
	}
}

// Len returns the sequence length.
func (t *Tree) Len() int { return t.n }

// Sigma returns the effective alphabet size.
func (t *Tree) Sigma() int { return len(t.alphabet) }

// descend follows position i from the root to its leaf with one fused
// rank-and-bit step per level, returning the leaf's heap index and i's
// position in leaf order. Positions are clamped before they index a level:
// the tables come from validated counts, but corrupt (unverified mapped)
// level bits can disagree with them.
func (t *Tree) descend(i int) (h, pos int) {
	h = 1
	for _, lv := range t.levels {
		if uint(i) >= uint(t.n) {
			i = t.n - 1
		}
		ones, bit := lv.Rank1Get(i)
		h = 2*h + bit
		// Branch-free pick of the bits-like-mine count: ones when bit is 1,
		// i-ones (zeros) when it is 0 — the bit is a coin flip to a predictor.
		i = int(t.step[h]) + ones + (i-2*ones)&(bit-1)
	}
	return h, i
}

// Access returns the symbol at position i (0 ≤ i < Len).
func (t *Tree) Access(i int) byte {
	h, _ := t.descend(i)
	// Codes ≥ σ are empty nodes, reachable only over corrupt level bits.
	return t.alphabet[min(h-1<<uint(t.depth), len(t.alphabet)-1)]
}

// LF returns C[c] + Rank(c, i) for c = Access(i), where C[c] counts the
// positions holding a symbol smaller than c — the FM-index's last-to-first
// step. Leaf order groups positions stably by symbol, so the position the
// descent ends at is that sum.
func (t *Tree) LF(i int) int {
	_, pos := t.descend(i)
	return pos
}

// Rank returns the number of occurrences of symbol c strictly before
// position i.
func (t *Tree) Rank(c byte, i int) int {
	pos := [1]int{i}
	t.ranks(c, pos[:])
	return pos[0]
}

// Rank2 returns Rank(c, i) and Rank(c, j) from one descent — the two
// boundaries of a backward-search step follow the same path.
func (t *Tree) Rank2(c byte, i, j int) (int, int) {
	pos := [2]int{i, j}
	t.ranks(c, pos[:])
	return pos[0], pos[1]
}

// ranks replaces every position in pos by the rank of c before it, walking
// c's root-to-leaf path once: at each level a boundary moves to its child's
// step plus the bits like c's before it, and it ends as far past the start
// of c's leaf as c occurs before it.
func (t *Tree) ranks(c byte, pos []int) {
	code := int(t.code[c])
	if code < 0 {
		clear(pos)
		return
	}
	for k, i := range pos {
		pos[k] = max(0, min(i, t.n))
	}
	h := 1
	for d, lv := range t.levels {
		bit := code >> uint(t.depth-1-d) & 1
		h = 2*h + bit
		for k, i := range pos {
			// The exclusive rank at i is the fused step at i-1 plus that
			// position's bit. A boundary stays within [0, n] unless corrupt
			// level bits disagree with the tables; it is clamped all the same.
			ones := 0
			if i = min(i, t.n); i > 0 {
				before, last := lv.Rank1Get(i - 1)
				ones = before + last
			}
			pos[k] = int(t.step[h]) + ones + (i-2*ones)&(bit-1) // as in descend
		}
	}
	for k := range pos {
		pos[k] -= int(t.leaf[code])
	}
}

// Bytes reports the memory footprint of the alphabet, the code table and the
// levels. The descent tables (3·2^depth+1 int32s — 388 bytes at depth 5)
// are derived state and not counted.
func (t *Tree) Bytes() int {
	b := len(t.alphabet) + 512
	for _, lv := range t.levels {
		b += lv.Bytes()
	}
	return b
}
