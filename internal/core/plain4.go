package core

import (
	"fmt"
	"io"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/mapped"
	"repro/internal/prob"
	"repro/internal/rmq"
	"repro/internal/suffix"
)

// The plain backend's format-4 envelope holds exactly what a plain query
// reads, so opening one reads files instead of re-running SA-IS, Kasai, the
// duplicate passes and every RMQ level:
//
//	tagMeta         kind metaKindPlain; n, srcLen, levels, longHi, longCap, τmin
//	tagT            the transformed text
//	tagSA           its suffix array
//	tagDir          the two-byte bucket directory (empty when the text gets none)
//	tagProbSums     prefix log sums            } prob.Prefix
//	tagProbZeros    prefix zero counts         }
//	tagPos          text position → source position (the dedup keys alias it)
//	tagDupWords     the short levels' duplicate bitmaps, level by level
//	tagShortArgmax  the short levels' block argmaxes, level by level
//	tagLongMax      the long levels' block maxima, level by level
//	tagSrc*, tagCorr the source, as the compressed envelope stores it
//	tagLogP         per-position log probabilities, only with correlations
//
// Two kinds of table are derived at open instead of stored, each in one
// cheap pass: the sparse table over every level's block maxima (one
// accessor call per stored argmax) and the long levels' block structure
// over their stored maxima. The open also proves every int32 a query
// dereferences in range — suffix-array entries, Pos, the directory, the
// argmaxes — so a query over an unchecked (mmap'd) envelope may answer
// wrongly but never indexes out of bounds or loops.

// WriteTo serialises the index as a format-4 envelope. An index that was
// itself opened from an envelope round-trips as a byte copy of it.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.env != nil {
		n, err := w.Write(ix.env.Bytes())
		return int64(n), err
	}
	e := ix.engine
	src := ix.Source()
	meta := envelopeMeta{
		kind:    metaKindPlain,
		tauMin:  ix.tauMin,
		longCap: e.longCap,
		// No meaning for plain, but every reader checks rate ≥ 1 before the
		// kind, and one from before plain envelopes must reach the kind to
		// answer ErrUnsupportedFormat rather than ErrCorruptIndex.
		rate:   1,
		n:      e.tx.Len(),
		srcLen: ix.srcLen,
		levels: e.levels,
		longHi: e.longHi,
	}
	if len(src.Corr) > 0 {
		meta.flags |= metaFlagCorr
	}
	argmax := make([]int32, 0, e.levels*rmq.Blocks(meta.n))
	for _, b := range e.short {
		argmax = append(argmax, b.Argmax()...)
	}
	var b mapped.Builder
	b.Add(tagMeta, meta.encode())
	b.Add(tagT, e.tx.Data())
	b.AddI32s(tagSA, e.tx.SA())
	b.AddI32s(tagDir, e.tx.Dir())
	b.AddF64s(tagProbSums, e.pre.Sums())
	b.AddI32s(tagProbZeros, e.pre.ZeroCounts())
	b.AddI32s(tagPos, e.pos)
	b.AddU64s(tagDupWords, e.dupWords)
	b.AddI32s(tagShortArgmax, argmax)
	b.AddF32s(tagLongMax, e.longMax)
	if err := addSource(&b, src); err != nil {
		return 0, err
	}
	if len(src.Corr) > 0 {
		b.AddF64s(tagLogP, ix.logp)
	}
	return b.WriteTo(w)
}

// plainFromEnvelope is backendFromEnvelope for the plain kind: the engine's
// arrays are views into env, and only the derived tables are allocated.
func plainFromEnvelope(env *mapped.Envelope, meta envelopeMeta, eager bool) (*Index, error) {
	n := meta.n
	text, err := requireRegion(env, tagT, "text")
	if err != nil {
		return nil, err
	}
	if len(text) != n {
		return nil, fmt.Errorf("%w: text has %d bytes, meta says %d", ErrCorruptIndex, len(text), n)
	}
	sa, err := regionI32s(env, tagSA, "suffix array")
	if err != nil {
		return nil, err
	}
	dir, err := regionI32s(env, tagDir, "bucket directory")
	if err != nil {
		return nil, err
	}
	tx, err := suffix.FromParts(text, sa, dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
	}
	sums, err := regionF64s(env, tagProbSums, "prob sums")
	if err != nil {
		return nil, err
	}
	zeros, err := regionI32s(env, tagProbZeros, "prob zeros")
	if err != nil {
		return nil, err
	}
	pre, err := prob.PrefixFromParts(sums, zeros)
	if err != nil || pre.Len() != n {
		return nil, fmt.Errorf("%w: prefix arrays of %d and %d entries for %d positions (%v)",
			ErrCorruptIndex, len(sums), len(zeros), n, err)
	}
	pos, err := regionI32s(env, tagPos, "pos")
	if err != nil {
		return nil, err
	}
	if len(pos) != n {
		return nil, fmt.Errorf("%w: %d pos entries, text has %d", ErrCorruptIndex, len(pos), n)
	}
	keys := 0
	for x, p := range pos {
		if p < -1 || int(p) >= meta.srcLen {
			return nil, fmt.Errorf("%w: Pos[%d] = %d outside source", ErrCorruptIndex, x, p)
		}
		keys = max(keys, int(p)+1)
	}
	if err := checkPlainLevels(meta); err != nil {
		return nil, err
	}
	e := &Engine{
		tx:      tx,
		pre:     pre,
		pos:     pos,
		key:     pos,
		keys:    keys,
		levels:  meta.levels,
		longLo:  meta.levels + 1,
		longHi:  meta.longHi,
		longCap: EffectiveLongCap(meta.longCap),
	}
	if e.dupWords, err = regionU64s(env, tagDupWords, "duplicate bitmaps"); err != nil {
		return nil, err
	}
	argmax, err := regionI32s(env, tagShortArgmax, "short argmaxes")
	if err != nil {
		return nil, err
	}
	longMax, err := requireRegion(env, tagLongMax, "long block maxima")
	if err != nil {
		return nil, err
	}
	if e.longMax, err = mapped.F32s(longMax); err != nil {
		return nil, fmt.Errorf("%w: long block maxima region: %w", ErrCorruptIndex, err)
	}
	nb := rmq.Blocks(n)
	if len(e.dupWords) != e.levels*bitset.Words(n) || len(argmax) != e.levels*nb ||
		len(e.longMax) != longBlocks(n, e.longLo, e.longHi) {
		return nil, fmt.Errorf("%w: %d bitmap words, %d argmaxes and %d long maxima do not fit %d levels over %d positions",
			ErrCorruptIndex, len(e.dupWords), len(argmax), len(e.longMax), e.levels, n)
	}
	ix := &Index{engine: e, tauMin: meta.tauMin}
	if err := ix.open(env, meta); err != nil {
		return nil, err
	}
	if meta.flags&metaFlagCorr != 0 {
		// Correlation correction reads the source and the log
		// probabilities on the query path, so they are resident, not lazy.
		if ix.logp, err = regionF64s(env, tagLogP, "log probabilities"); err != nil {
			return nil, err
		}
		if len(ix.logp) != n {
			return nil, fmt.Errorf("%w: %d log probabilities, text has %d", ErrCorruptIndex, len(ix.logp), n)
		}
		e.corr = ix.corrHook(text, pos)
		ix.Source()
	}

	e.setViews()
	e.short = make([]*rmq.Block, e.levels)
	for l := range e.short {
		level := l + 1
		ci := func(j int) float64 { return e.ci(level, j) }
		if e.short[l], err = rmq.FromArgmax(n, ci, argmax[l*nb:(l+1)*nb:(l+1)*nb]); err != nil {
			return nil, fmt.Errorf("%w: level %d: %w", ErrCorruptIndex, level, err)
		}
	}
	e.buildLongRMQ()
	if eager {
		if err := checkSource(ix.Source(), meta.srcLen); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// checkPlainLevels checks that meta's level counts are ones NewEngine
// could have chosen for its text length and long cap.
func checkPlainLevels(meta envelopeMeta) error {
	n := meta.n
	ok := meta.levels == 0 && meta.longHi == 0
	if n > 0 {
		ok = meta.levels >= 1 && meta.levels <= max(bits.Len(uint(n))-1, 1) &&
			meta.longHi <= min(n, EffectiveLongCap(meta.longCap))
	}
	if !ok {
		return fmt.Errorf("%w: %d short levels and long lengths up to %d over %d positions",
			ErrCorruptIndex, meta.levels, meta.longHi, n)
	}
	return nil
}
