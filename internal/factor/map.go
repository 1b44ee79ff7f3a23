package factor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/prob"
	"repro/internal/rank"
)

// ErrBadMapParts reports structurally invalid inputs to MapFromParts.
var ErrBadMapParts = errors.New("factor: invalid position-map parts")

// Map answers, per text position, the two questions the per-position Pos
// array and the zero-count half of the C array answer — which original
// position is this, and does a window cross a zero-probability position —
// from which run of the text the position lies in. Inside a factor Pos is
// x + const, and a window is dead exactly when a marked position falls in
// it, so one bit per text position and one int32 per run replace two int32
// per position.
//
// Marked are the positions prob.NewPrefix counts as zero: every separator,
// and every character whose base probability is 0 (or NaN) — a correlated
// character can be viable through pr⁺/pr⁻ alone, and the windows over it
// must stay as dead as Prefix.Span makes them.
type Map struct {
	bits  *rank.Bits
	delta []int32 // delta[g] = Pos[x] − x for the unmarked x of run g; len = Ones()+1
}

// NewMap builds the map of an n-position text from its Pos array and the
// marked-position predicate.
func NewMap(pos []int32, marked func(x int) bool) *Map {
	b := rank.NewBuilder(len(pos))
	delta := []int32{0}
	for x, p := range pos {
		mk := marked(x)
		b.Append(mk)
		if mk {
			delta = append(delta, 0)
		} else {
			delta[len(delta)-1] = p - int32(x)
		}
	}
	return &Map{bits: b.Build(), delta: delta}
}

// Map builds the position map of the transformed text.
func (tr *Transformed) Map() *Map {
	return NewMap(tr.Pos, func(x int) bool {
		lp := tr.LogP[x]
		return lp == prob.LogZero || math.IsNaN(lp)
	})
}

// MapFromParts reassembles a Map over existing storage — typically views
// over mmap'd format-4 regions — without copying. Only the structure is
// validated; delta values are not scanned, and Pos range-checks the run it
// derives, so corrupt bytes yield wrong positions, never a panic.
func MapFromParts(bits *rank.Bits, delta []int32) (*Map, error) {
	if len(delta) != bits.Ones()+1 {
		return nil, fmt.Errorf("%w: %d deltas for %d marked positions", ErrBadMapParts, len(delta), bits.Ones())
	}
	return &Map{bits: bits, delta: delta}, nil
}

// Bits returns the marked-position bit vector. Read-only; exposed for
// envelope serialization.
func (m *Map) Bits() *rank.Bits { return m.bits }

// Deltas returns the per-run offsets. Read-only, same caveat as Bits.
func (m *Map) Deltas() []int32 { return m.delta }

// Run returns the run text position x lies in: the number of marked
// positions before it. The window [x, x+m) is live iff Run(x+m) == Run(x).
func (m *Map) Run(x int) int { return m.bits.Rank1(x) }

// Pos returns the original position of text position x — the paper's
// Pos[x] — for unmarked x, and -1 when the run has no delta (reachable
// only over corrupt bit words).
func (m *Map) Pos(x int) int {
	g := m.Run(x)
	if g >= len(m.delta) {
		return -1
	}
	return x + int(m.delta[g])
}

// Window is Pos(x) together with the liveness of the window [x, x+length)
// from one rank: the run comes from the rank at x, and the window is live
// iff none of its own marked bits is set — Run(x+length) == Run(x) without
// the second rank. ok is false for a dead window, one leaving the text, or
// a run with no delta (reachable only over corrupt bit words).
func (m *Map) Window(x, length int) (pos int, ok bool) {
	if x < 0 || length < 0 || x+length > m.bits.Len() {
		return -1, false
	}
	g := m.bits.Rank1(x)
	if g >= len(m.delta) || m.bits.AnySet(x, x+length) {
		return -1, false
	}
	return x + int(m.delta[g]), true
}

// Bytes reports the memory footprint.
func (m *Map) Bytes() int { return m.bits.Bytes() + len(m.delta)*4 }
