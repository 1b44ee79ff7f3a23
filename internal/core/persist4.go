package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/factor"
	"repro/internal/fm"
	"repro/internal/mapped"
	"repro/internal/rank"
	"repro/internal/ustring"
)

// Format 4 is the flat envelope (internal/mapped): instead of gob-encoding
// the source plus transformation and rebuilding every query structure on
// load, the compressed backend's structures themselves — wavelet-tree BWT
// levels, rank blocks, sampled suffix array, probability prefix sums, the
// position map — are written as 8-byte-aligned, checksummed regions that the
// query code addresses in place. Loading is O(regions), not O(corpus):
// from an mmap'd file no payload page is touched until a query faults it
// in. The source string is stored as flattened per-position tables and
// only materialised if someone asks for it (Source()).
//
// The plain backend writes the same envelope under its own meta kind
// (plain4.go), holding its suffix array, directory, prefix sums, Pos and
// RMQ levels; its open makes O(text) passes that prove every stored index
// in range. Gob formats 1–3 remain readable (see persist.go); only the
// approx backend still writes format 3. ReadBackend dispatches on the
// envelope magic, backendFromEnvelope on the meta kind.

// Region tags of the format-4 envelope. Level tags are per wavelet level:
// tagLevelWords|d and tagLevelBlocks|d for level d. The compressed backend
// only reads tagProbZeros and tagPos: its envelopes written before the
// position map (PR 15) carry them in place of the three tagMap regions, and
// legacyMap derives the map from them at open. The plain backend writes
// both.
const (
	tagMeta         = 0x4154454D // "META"
	tagCounts       = 0x53544E43 // cumulative symbol counts, []int32[258]
	tagAlphabet     = 0x48504C41 // wavelet alphabet, raw bytes
	tagSampledWords = 0x57504D53 // sampled-rows bit words, []uint64
	tagSampledBlks  = 0x42504D53 // sampled-rows block counts, []int32
	tagSamples      = 0x4C504D53 // sampled SA' values, []int32
	tagProbSums     = 0x4D555350 // prefix log-prob sums, []float64
	tagProbZeros    = 0x4F525A50 // prefix zero counts, []int32 (plain; legacy compressed)
	tagPos          = 0x2E534F50 // text position → source position, []int32 (plain; legacy compressed)
	tagMapWords     = 0x5750414D // position-map bit words, []uint64
	tagMapBlocks    = 0x4250414D // position-map block counts, []int32
	tagMapDeltas    = 0x4450414D // position-map per-run offsets, []int32
	tagSrcOffsets   = 0x46464F53 // source CSR offsets, []int32, len srcLen+1
	tagSrcChars     = 0x52484353 // source choice characters, raw bytes
	tagSrcProbs     = 0x52505353 // source choice probabilities, []float64
	tagCorr         = 0x52524F43 // gob []ustring.Correlation (only if any)
	tagT            = 0x2E545854 // transformed text (plain; compressed only with correlations)
	tagLogP         = 0x50474F4C // per-position log probs (only with correlations)
	tagLevelWords   = 0x4C570000 // | level
	tagLevelBlocks  = 0x4C420000 // | level

	// The plain backend's own regions (plain4.go).
	tagSA          = 0x41584653 // "SFXA" suffix array, []int32
	tagDir         = 0x52494442 // "BDIR" bucket directory, []int32
	tagDupWords    = 0x57505544 // "DUPW" duplicate bitmaps, []uint64
	tagShortArgmax = 0x47524153 // "SARG" short-level block argmaxes, []int32
	tagLongMax     = 0x58414D4C // "LMAX" long-level block maxima, []float32
)

// metaSize is the fixed size of the tagMeta region.
const metaSize = 64

// envelope meta kinds.
const (
	metaKindCompressed = 1
	metaKindPlain      = 2
)

const metaFlagCorr = 1 // source declares correlations

// Typed classes for envelope/payload validation failures; ReadBackend and
// OpenBackendFile wrap every corruption report in ErrCorruptIndex so
// callers can errors.Is against the class regardless of format.
var (
	ErrCorruptIndex      = errors.New("core: corrupt index payload")
	ErrUnsupportedFormat = errors.New("core: unsupported index format")
)

// envelopeMeta is the decoded tagMeta region.
type envelopeMeta struct {
	kind    uint32
	flags   uint32
	tauMin  float64
	longCap int
	rate    int
	n       int // transformed text length
	srcLen  int // source position count
	depth   int // wavelet levels (compressed)
	levels  int // short RMQ levels (plain)
	longHi  int // last long RMQ length (plain)
}

func (m envelopeMeta) encode() []byte {
	b := make([]byte, metaSize)
	binary.LittleEndian.PutUint32(b[0:], 1) // meta version
	binary.LittleEndian.PutUint32(b[4:], m.kind)
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(m.tauMin))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(m.longCap)))
	binary.LittleEndian.PutUint64(b[24:], uint64(int64(m.rate)))
	binary.LittleEndian.PutUint64(b[32:], uint64(int64(m.n)))
	binary.LittleEndian.PutUint64(b[40:], uint64(int64(m.srcLen)))
	binary.LittleEndian.PutUint32(b[48:], uint32(m.depth))
	binary.LittleEndian.PutUint32(b[52:], m.flags)
	binary.LittleEndian.PutUint32(b[56:], uint32(m.levels))
	binary.LittleEndian.PutUint32(b[60:], uint32(m.longHi))
	return b
}

func decodeMeta(b []byte) (envelopeMeta, error) {
	var m envelopeMeta
	if len(b) != metaSize {
		return m, fmt.Errorf("%w: meta region is %d bytes, want %d", ErrCorruptIndex, len(b), metaSize)
	}
	if v := binary.LittleEndian.Uint32(b[0:]); v != 1 {
		return m, fmt.Errorf("%w: envelope meta version %d", ErrUnsupportedFormat, v)
	}
	m.kind = binary.LittleEndian.Uint32(b[4:])
	m.tauMin = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	m.longCap = int(int64(binary.LittleEndian.Uint64(b[16:])))
	m.rate = int(int64(binary.LittleEndian.Uint64(b[24:])))
	m.n = int(int64(binary.LittleEndian.Uint64(b[32:])))
	m.srcLen = int(int64(binary.LittleEndian.Uint64(b[40:])))
	m.depth = int(binary.LittleEndian.Uint32(b[48:]))
	m.flags = binary.LittleEndian.Uint32(b[52:])
	m.levels = int(binary.LittleEndian.Uint32(b[56:]))
	m.longHi = int(binary.LittleEndian.Uint32(b[60:]))
	if m.n < 0 || m.srcLen < 0 || m.depth < 0 || m.depth > 8 || m.rate < 1 || m.longCap < 0 {
		return m, fmt.Errorf("%w: envelope meta out of range (n=%d srcLen=%d depth=%d rate=%d longCap=%d)",
			ErrCorruptIndex, m.n, m.srcLen, m.depth, m.rate, m.longCap)
	}
	if !(m.tauMin >= 0 && m.tauMin <= 1) {
		return m, fmt.Errorf("%w: envelope tauMin %v outside [0,1]", ErrCorruptIndex, m.tauMin)
	}
	return m, nil
}

// WriteTo serialises the compressed index as a format-4 flat envelope.
// Unlike the former gob format this persists the query structures
// directly — no transformation re-run on save, no suffix-array rebuild on
// load. An index that was itself opened from an envelope round-trips as a
// byte copy of its backing envelope.
func (cx *CompressedIndex) WriteTo(w io.Writer) (int64, error) {
	if cx.env != nil {
		n, err := w.Write(cx.env.Bytes())
		return int64(n), err
	}
	var b mapped.Builder
	meta := envelopeMeta{
		kind:    metaKindCompressed,
		tauMin:  cx.tauMin,
		longCap: cx.longCap,
		rate:    cx.rate,
		n:       cx.fm.Len(),
		srcLen:  cx.srcLen,
		depth:   len(cx.fm.BWT().Levels()),
	}
	src := cx.Source()
	if len(src.Corr) > 0 {
		meta.flags |= metaFlagCorr
	}
	b.Add(tagMeta, meta.encode())
	b.AddI32s(tagCounts, cx.fm.Counts())
	b.Add(tagAlphabet, cx.fm.BWT().Alphabet())
	for d, lv := range cx.fm.BWT().Levels() {
		b.AddU64s(tagLevelWords|uint32(d), lv.Words())
		b.AddI32s(tagLevelBlocks|uint32(d), lv.BlockCounts())
	}
	b.AddU64s(tagSampledWords, cx.fm.SampledRows().Words())
	b.AddI32s(tagSampledBlks, cx.fm.SampledRows().BlockCounts())
	b.AddI32s(tagSamples, cx.fm.Samples())
	b.AddF64s(tagProbSums, cx.sums)
	b.AddU64s(tagMapWords, cx.fmap.Bits().Words())
	b.AddI32s(tagMapBlocks, cx.fmap.Bits().BlockCounts())
	b.AddI32s(tagMapDeltas, cx.fmap.Deltas())

	if err := addSource(&b, src); err != nil {
		return 0, err
	}
	if len(src.Corr) > 0 {
		b.Add(tagT, cx.t)
		b.AddF64s(tagLogP, cx.logp)
	}
	return b.WriteTo(w)
}

// addSource adds the source string's regions: the choices as CSR — one
// offset per position, flattened characters and probabilities — and the
// correlations, when there are any, gob-encoded.
func addSource(b *mapped.Builder, src *ustring.String) error {
	offsets := make([]int32, src.Len()+1)
	total := 0
	for i, pos := range src.Pos {
		offsets[i] = int32(total)
		total += len(pos)
	}
	offsets[src.Len()] = int32(total)
	chars := make([]byte, total)
	probs := make([]float64, total)
	k := 0
	for _, pos := range src.Pos {
		for _, c := range pos {
			chars[k], probs[k] = c.Char, c.Prob
			k++
		}
	}
	b.AddI32s(tagSrcOffsets, offsets)
	b.Add(tagSrcChars, chars)
	b.AddF64s(tagSrcProbs, probs)
	if len(src.Corr) > 0 {
		var cb bytes.Buffer
		if err := gob.NewEncoder(&cb).Encode(src.Corr); err != nil {
			return fmt.Errorf("core: persisting correlations: %w", err)
		}
		b.Add(tagCorr, cb.Bytes())
	}
	return nil
}

// requireRegion fetches a mandatory region.
func requireRegion(env *mapped.Envelope, tag uint32, name string) ([]byte, error) {
	r, ok := env.Region(tag)
	if !ok {
		return nil, fmt.Errorf("%w: missing %s region", ErrCorruptIndex, name)
	}
	return r, nil
}

func regionI32s(env *mapped.Envelope, tag uint32, name string) ([]int32, error) {
	r, err := requireRegion(env, tag, name)
	if err != nil {
		return nil, err
	}
	v, err := mapped.I32s(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %s region: %w", ErrCorruptIndex, name, err)
	}
	return v, nil
}

func regionU64s(env *mapped.Envelope, tag uint32, name string) ([]uint64, error) {
	r, err := requireRegion(env, tag, name)
	if err != nil {
		return nil, err
	}
	v, err := mapped.U64s(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %s region: %w", ErrCorruptIndex, name, err)
	}
	return v, nil
}

func regionF64s(env *mapped.Envelope, tag uint32, name string) ([]float64, error) {
	r, err := requireRegion(env, tag, name)
	if err != nil {
		return nil, err
	}
	v, err := mapped.F64s(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %s region: %w", ErrCorruptIndex, name, err)
	}
	return v, nil
}

// backendFromEnvelope reassembles a backend over an opened envelope. The
// structures are views into env's bytes — zero copy — so env must stay
// open for the backend's lifetime; the returned index owns it and Close
// releases it.
//
// eager controls source handling: the stream path (ReadBackend) has the
// whole payload on heap anyway and preserves the historical contract of
// validating the source before returning; the mmap fast path defers
// materialisation so no source page is faulted.
func backendFromEnvelope(env *mapped.Envelope, eager bool) (Backend, error) {
	metaRegion, err := requireRegion(env, tagMeta, "meta")
	if err != nil {
		return nil, err
	}
	meta, err := decodeMeta(metaRegion)
	if err != nil {
		return nil, err
	}
	switch meta.kind {
	case metaKindCompressed:
		return compressedFromEnvelope(env, meta, eager)
	case metaKindPlain:
		return plainFromEnvelope(env, meta, eager)
	}
	return nil, fmt.Errorf("%w: envelope backend kind %d", ErrUnsupportedFormat, meta.kind)
}

// compressedFromEnvelope is backendFromEnvelope for the compressed kind.
func compressedFromEnvelope(env *mapped.Envelope, meta envelopeMeta, eager bool) (*CompressedIndex, error) {
	counts, err := regionI32s(env, tagCounts, "counts")
	if err != nil {
		return nil, err
	}
	alphabet, err := requireRegion(env, tagAlphabet, "alphabet")
	if err != nil {
		return nil, err
	}
	levels := make([]*rank.Bits, meta.depth)
	for d := 0; d < meta.depth; d++ {
		words, err := regionU64s(env, tagLevelWords|uint32(d), fmt.Sprintf("level %d words", d))
		if err != nil {
			return nil, err
		}
		blocks, err := regionI32s(env, tagLevelBlocks|uint32(d), fmt.Sprintf("level %d blocks", d))
		if err != nil {
			return nil, err
		}
		if levels[d], err = rank.FromParts(words, blocks, meta.n+1); err != nil {
			return nil, fmt.Errorf("%w: level %d: %w", ErrCorruptIndex, d, err)
		}
	}

	sampledWords, err := regionU64s(env, tagSampledWords, "sampled words")
	if err != nil {
		return nil, err
	}
	sampledBlks, err := regionI32s(env, tagSampledBlks, "sampled blocks")
	if err != nil {
		return nil, err
	}
	sampled, err := rank.FromParts(sampledWords, sampledBlks, meta.n+1)
	if err != nil {
		return nil, fmt.Errorf("%w: sampled rows: %w", ErrCorruptIndex, err)
	}
	samples, err := regionI32s(env, tagSamples, "samples")
	if err != nil {
		return nil, err
	}
	fmx, err := fm.FromParts(alphabet, levels, counts, sampled, samples, meta.rate, meta.n)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
	}

	sums, err := regionF64s(env, tagProbSums, "prob sums")
	if err != nil {
		return nil, err
	}
	if len(sums) != meta.n+1 {
		return nil, fmt.Errorf("%w: prefix sums cover %d positions, text has %d", ErrCorruptIndex, len(sums)-1, meta.n)
	}
	fmap, err := mapFromEnvelope(env, meta.n)
	if err != nil {
		return nil, err
	}
	cx := &CompressedIndex{
		tauMin:  meta.tauMin,
		longCap: meta.longCap,
		rate:    meta.rate,
		fm:      fmx,
		sums:    sums,
		fmap:    fmap,
	}
	if err := cx.open(env, meta); err != nil {
		return nil, err
	}
	if meta.flags&metaFlagCorr != 0 {
		// Correlation correction reads the source and the raw transformed
		// arrays on the query path, so they are resident, not lazy.
		t, err := requireRegion(env, tagT, "transformed text")
		if err != nil {
			return nil, err
		}
		logp, err := regionF64s(env, tagLogP, "log probabilities")
		if err != nil {
			return nil, err
		}
		if len(t) != meta.n || len(logp) != meta.n {
			return nil, fmt.Errorf("%w: correlation arrays T=%d LogP=%d, text has %d", ErrCorruptIndex, len(t), len(logp), meta.n)
		}
		cx.t = t
		cx.logp = logp
		cx.Source() // force materialisation; corrAdjust needs cx.src
	}
	if eager {
		if err := checkSource(cx.Source(), meta.srcLen); err != nil {
			return nil, err
		}
	}
	return cx, nil
}

// envSource is how a backend holds its source string and, when it was
// opened from a format-4 envelope, that envelope: the backend's query
// arrays are views into its bytes (heap or mmap'd), and the string is
// materialised from the stored per-position tables on the first Source()
// call unless correlations need it on the query path — so serving a mapped
// corpus keeps the heap free of document data. srcLen is valid either way.
type envSource struct {
	src     *ustring.String
	srcLen  int
	srcOnce sync.Once
	srcFn   func() *ustring.String
	env     *mapped.Envelope
}

// Source returns the indexed uncertain string, materialising (and
// retaining) an envelope-opened one on first call.
func (s *envSource) Source() *ustring.String {
	if s.srcFn != nil {
		s.srcOnce.Do(func() { s.src = s.srcFn() })
	}
	return s.src
}

// SourceLen returns the source string's position count without forcing a
// lazily-loaded source to materialise.
func (s *envSource) SourceLen() int { return s.srcLen }

// MappedBytes reports the bytes of mmap'd storage backing the index
// (0 for heap-resident indexes).
func (s *envSource) MappedBytes() int64 {
	if s.env != nil && s.env.Mapped() {
		return s.env.Size()
	}
	return 0
}

// Close releases the index's mapping, if any. The caller must guarantee
// no query is running or will run afterwards — the eviction paths that
// call this do so only after removing the index from serving and waiting
// out a grace period.
func (s *envSource) Close() error { return s.env.Close() }

// open checks env's source regions' shapes against meta and makes env the
// backing of s, with the string materialised lazily from those regions;
// the correlations are decoded up front (a flagged envelope must carry
// them).
func (s *envSource) open(env *mapped.Envelope, meta envelopeMeta) error {
	offsets, err := regionI32s(env, tagSrcOffsets, "source offsets")
	if err != nil {
		return err
	}
	chars, err := requireRegion(env, tagSrcChars, "source chars")
	if err != nil {
		return err
	}
	probs, err := regionF64s(env, tagSrcProbs, "source probs")
	if err != nil {
		return err
	}
	if len(offsets) != meta.srcLen+1 {
		return fmt.Errorf("%w: source offsets has %d entries, want %d", ErrCorruptIndex, len(offsets), meta.srcLen+1)
	}
	if len(probs) != len(chars) {
		return fmt.Errorf("%w: %d source chars but %d probabilities", ErrCorruptIndex, len(chars), len(probs))
	}
	var corr []ustring.Correlation
	if meta.flags&metaFlagCorr != 0 {
		cr, err := requireRegion(env, tagCorr, "correlations")
		if err != nil {
			return err
		}
		if err := gob.NewDecoder(bytes.NewReader(cr)).Decode(&corr); err != nil {
			return fmt.Errorf("%w: correlations: %v", ErrCorruptIndex, err)
		}
	}
	s.env, s.srcLen = env, meta.srcLen
	s.srcFn = func() *ustring.String {
		return materializeSource(offsets, chars, probs, corr)
	}
	return nil
}

// checkSource validates a materialised source and its length against the
// envelope's meta.
func checkSource(src *ustring.String, srcLen int) error {
	if err := src.Validate(); err != nil {
		return fmt.Errorf("%w: persisted source invalid: %v", ErrCorruptIndex, err)
	}
	if src.Len() != srcLen {
		return fmt.Errorf("%w: source has %d positions, meta says %d", ErrCorruptIndex, src.Len(), srcLen)
	}
	return nil
}

// mapFromEnvelope assembles the position map over its three regions, or —
// for an envelope written before they existed — from the legacy tables.
func mapFromEnvelope(env *mapped.Envelope, n int) (*factor.Map, error) {
	if _, ok := env.Region(tagMapWords); !ok {
		return legacyMap(env, n)
	}
	words, err := regionU64s(env, tagMapWords, "map words")
	if err != nil {
		return nil, err
	}
	blocks, err := regionI32s(env, tagMapBlocks, "map blocks")
	if err != nil {
		return nil, err
	}
	bits, err := rank.FromParts(words, blocks, n)
	if err != nil {
		return nil, fmt.Errorf("%w: position map: %w", ErrCorruptIndex, err)
	}
	delta, err := regionI32s(env, tagMapDeltas, "map deltas")
	if err != nil {
		return nil, err
	}
	fmap, err := factor.MapFromParts(bits, delta)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
	}
	return fmap, nil
}

// legacyMap builds, on the heap and in one pass, the position map of an
// envelope that stores a Pos entry and a prefix zero count per text position
// instead: a position is marked where the zero count steps up.
func legacyMap(env *mapped.Envelope, n int) (*factor.Map, error) {
	zeros, err := regionI32s(env, tagProbZeros, "prob zeros")
	if err != nil {
		return nil, err
	}
	pos, err := regionI32s(env, tagPos, "pos")
	if err != nil {
		return nil, err
	}
	if len(zeros) != n+1 || len(pos) != n {
		return nil, fmt.Errorf("%w: %d zero counts and %d pos entries, text has %d", ErrCorruptIndex, len(zeros), len(pos), n)
	}
	return factor.NewMap(pos, func(x int) bool { return zeros[x+1] > zeros[x] }), nil
}

// materializeSource rebuilds the uncertain string from its CSR regions.
// Offsets are range-clamped rather than trusted: over corrupt unverified
// data this yields a wrong string, never a panic.
func materializeSource(offsets []int32, chars []byte, probs []float64, corr []ustring.Correlation) *ustring.String {
	n := len(offsets) - 1
	s := &ustring.String{Corr: corr}
	if n <= 0 {
		return s
	}
	s.Pos = make([]ustring.Position, n)
	total := len(chars)
	for i := 0; i < n; i++ {
		a, b := int(offsets[i]), int(offsets[i+1])
		if a < 0 || b < a || b > total {
			continue
		}
		pos := make(ustring.Position, b-a)
		for k := a; k < b; k++ {
			pos[k-a] = ustring.Choice{Char: chars[k], Prob: probs[k]}
		}
		s.Pos[i] = pos
	}
	return s
}

// openMapped is backendFromEnvelope over a mapping, under the recover the
// heap path's decodeBackend runs under.
func openMapped(env *mapped.Envelope) (b Backend, err error) {
	defer asCorrupt(&b, &err)
	return backendFromEnvelope(env, false)
}

// OpenBackendFile opens an index file with the zero-copy fast path: a
// format-4 envelope is validated structurally and its query structures are
// addressed in place — mmap'd when useMmap is set and the platform
// supports it; otherwise the file is read onto the heap and opened as
// ReadBackend opens it. Older gob files are decoded and rebuilt.
// skippedDecode reports whether the envelope path was taken (no gob
// decode, no structure rebuild); the catalog counts these for /v1/stats.
func OpenBackendFile(path string, useMmap bool) (b Backend, skippedDecode bool, err error) {
	if useMmap {
		env, err := mapped.OpenFile(path)
		if err == nil {
			bk, berr := openMapped(env)
			if berr != nil {
				env.Close()
				return nil, false, fmt.Errorf("%w: %w", ErrCorruptIndex, berr)
			}
			return bk, true, nil
		}
		if !errors.Is(err, mapped.ErrBadMagic) {
			if _, statErr := os.Stat(path); statErr != nil {
				return nil, false, statErr
			}
			return nil, false, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
		}
		// Not an envelope: an older gob cache file; decode it.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, false, fmt.Errorf("core: reading index: %w", err)
	}
	bk, err := decodeBackend(data)
	if err != nil {
		return nil, false, err
	}
	return bk, mapped.IsEnvelope(data), nil
}
