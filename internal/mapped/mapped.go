// Package mapped implements the flat "format 4" index envelope: a fixed
// header, a region table (tag, offset, length, checksum per region), and
// 8-byte-aligned payload regions that succinct-structure query code can
// address in place — over a heap buffer or an mmap'd file — without
// decoding or copying.
//
// The envelope is deliberately dumb: it knows nothing about what the
// regions mean. Callers (internal/core) assign tags and reassemble typed
// views over the raw bytes. Opening an envelope performs structural
// validation only — magic, header sanity, table checksum, region bounds,
// overlap and alignment — and is O(regions), never O(payload): verifying
// per-region checksums would fault every page of a mapped file and defeat
// the O(1)-start property, so that pass is a separate opt-in
// (VerifyChecksums).
//
// Layout (all integers little-endian):
//
//	offset 0   magic    "USIX4\r\n\x00" (8 bytes)
//	offset 8   version  uint32 (currently 1)
//	offset 12  nregions uint32
//	offset 16  size     uint64 — total envelope length in bytes
//	offset 24  tableCRC uint32 — CRC-32 (Castagnoli) of the region table
//	offset 28  reserved uint32 (zero)
//	offset 32  region table: nregions × 24-byte entries
//	           {tag uint32, crc uint32, offset uint64, length uint64}
//	...        payload regions, each starting at an 8-byte-aligned offset,
//	           zero-padded between regions
//
// Region payloads are written in the machine's native byte order (the
// header records it; Open rejects a mismatch), because the whole point is
// to cast mapped bytes directly to []uint64/[]int32/[]float64. Every Go
// target this repo builds for is little-endian; a big-endian reader gets
// a typed error, not silent corruption.
package mapped

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
	"unsafe"
)

// Magic identifies a format-4 envelope. The trailing \r\n catches FTP-style
// newline mangling, the NUL catches C-string truncation.
const Magic = "USIX4\r\n\x00"

const (
	headerSize = 32
	entrySize  = 24
	version    = 1

	// MaxRegions bounds the region table so a hostile header can't make a
	// reader allocate an absurd table. Real envelopes have a few dozen
	// regions (a handful per wavelet level).
	MaxRegions = 1 << 16
)

// Typed validation errors. Every structural defect maps onto one of these
// (wrapped with position detail), so callers and tests can errors.Is
// against the class rather than matching message text.
var (
	ErrBadMagic  = errors.New("mapped: not a format-4 envelope (bad magic)")
	ErrTruncated = errors.New("mapped: envelope truncated")
	ErrBadHeader = errors.New("mapped: invalid envelope header")
	ErrBadTable  = errors.New("mapped: invalid region table")
	ErrChecksum  = errors.New("mapped: region checksum mismatch")
	ErrClosed    = errors.New("mapped: envelope is closed")
	ErrBigEndian = errors.New("mapped: envelope written on a big-endian machine")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nativeLittleEndian reports whether this machine stores integers
// little-endian. Evaluated once; the envelope format only supports
// little-endian hosts (every supported GOARCH qualifies).
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// IsEnvelope reports whether b begins with the format-4 magic. Callers use
// it to dispatch between the flat envelope and older gob streams after
// peeking a few bytes.
func IsEnvelope(b []byte) bool {
	return len(b) >= len(Magic) && string(b[:len(Magic)]) == Magic
}

// region is one parsed region-table entry.
type region struct {
	tag uint32
	crc uint32
	off uint64
	ln  uint64
}

// Envelope is an opened format-4 envelope: the raw bytes plus the parsed,
// validated region table. When the bytes came from OpenFile, Close unmaps
// them; the zero release func (heap buffers) makes Close a no-op.
type Envelope struct {
	data    []byte
	regions []region
	mapped  bool
	release func() error
	closed  atomic.Bool
}

// Builder accumulates tagged regions and serializes them as an envelope.
// Regions are written in Add order; tags must be unique.
type Builder struct {
	tags     []uint32
	payloads [][]byte
}

// Add appends one region. The payload is referenced, not copied; it must
// stay unmodified until WriteTo returns.
func (b *Builder) Add(tag uint32, payload []byte) {
	b.tags = append(b.tags, tag)
	b.payloads = append(b.payloads, payload)
}

// AddU64s, AddI32s, AddF64s and AddF32s add a region whose payload is the
// raw native-endian memory of the slice — the exact bytes a reader's typed
// view will reinterpret, so write+open is bit-identical round trip.
func (b *Builder) AddU64s(tag uint32, v []uint64) { b.Add(tag, u64Bytes(v)) }
func (b *Builder) AddI32s(tag uint32, v []int32)  { b.Add(tag, i32Bytes(v)) }
func (b *Builder) AddF64s(tag uint32, v []float64) {
	b.Add(tag, f64Bytes(v))
}
func (b *Builder) AddF32s(tag uint32, v []float32) {
	b.Add(tag, f32Bytes(v))
}

// Size returns the total envelope size WriteTo will produce.
func (b *Builder) Size() int64 {
	off := align8(headerSize + entrySize*len(b.tags))
	for _, p := range b.payloads {
		off = align8(off + len(p))
	}
	return int64(off)
}

// WriteTo serializes the envelope. The output is deterministic for a given
// sequence of Add calls on a given architecture.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	if !nativeLittleEndian {
		return 0, ErrBigEndian
	}
	n := len(b.tags)
	if n > MaxRegions {
		return 0, fmt.Errorf("%w: %d regions exceeds limit %d", ErrBadTable, n, MaxRegions)
	}
	seen := make(map[uint32]bool, n)
	for _, t := range b.tags {
		if seen[t] {
			return 0, fmt.Errorf("%w: duplicate tag %#x", ErrBadTable, t)
		}
		seen[t] = true
	}

	tableLen := headerSize + entrySize*n
	head := make([]byte, align8(tableLen))
	copy(head, Magic)
	binary.LittleEndian.PutUint32(head[8:], version)
	binary.LittleEndian.PutUint32(head[12:], uint32(n))
	binary.LittleEndian.PutUint64(head[16:], uint64(b.Size()))

	off := uint64(len(head))
	for i, p := range b.payloads {
		e := head[headerSize+entrySize*i:]
		binary.LittleEndian.PutUint32(e[0:], b.tags[i])
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(p, castagnoli))
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(p)))
		off = uint64(align8(int(off) + len(p)))
	}
	binary.LittleEndian.PutUint32(head[24:],
		crc32.Checksum(head[headerSize:tableLen], castagnoli))

	written := int64(0)
	wr := func(p []byte) error {
		m, err := w.Write(p)
		written += int64(m)
		return err
	}
	if err := wr(head); err != nil {
		return written, err
	}
	var pad [8]byte
	for _, p := range b.payloads {
		if err := wr(p); err != nil {
			return written, err
		}
		if rem := align8(len(p)) - len(p); rem > 0 {
			if err := wr(pad[:rem]); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// Open validates the structure of an envelope held in b and returns a view
// over it. The bytes are referenced, not copied; they must outlive the
// Envelope. Validation is O(regions): bounds, alignment, overlap and the
// table checksum — not region payload checksums (see VerifyChecksums).
func Open(b []byte) (*Envelope, error) {
	return open(b, false, nil)
}

func open(b []byte, isMapped bool, release func() error) (*Envelope, error) {
	if !nativeLittleEndian {
		return nil, ErrBigEndian
	}
	if !IsEnvelope(b) {
		return nil, ErrBadMagic
	}
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(b), headerSize)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != version {
		return nil, fmt.Errorf("%w: envelope version %d, reader supports %d", ErrBadHeader, v, version)
	}
	n := binary.LittleEndian.Uint32(b[12:])
	if n > MaxRegions {
		return nil, fmt.Errorf("%w: %d regions exceeds limit %d", ErrBadHeader, n, MaxRegions)
	}
	size := binary.LittleEndian.Uint64(b[16:])
	if size != uint64(len(b)) {
		return nil, fmt.Errorf("%w: header says %d bytes, have %d", ErrTruncated, size, len(b))
	}
	tableLen := headerSize + entrySize*int(n)
	if tableLen > len(b) {
		return nil, fmt.Errorf("%w: region table needs %d bytes, have %d", ErrTruncated, tableLen, len(b))
	}
	table := b[headerSize:tableLen]
	if got, want := crc32.Checksum(table, castagnoli), binary.LittleEndian.Uint32(b[24:]); got != want {
		return nil, fmt.Errorf("%w: region table CRC %#x, header says %#x", ErrBadTable, got, want)
	}

	regions := make([]region, n)
	minOff := uint64(align8(tableLen))
	seen := make(map[uint32]bool, n)
	for i := range regions {
		e := table[entrySize*i:]
		r := region{
			tag: binary.LittleEndian.Uint32(e[0:]),
			crc: binary.LittleEndian.Uint32(e[4:]),
			off: binary.LittleEndian.Uint64(e[8:]),
			ln:  binary.LittleEndian.Uint64(e[16:]),
		}
		if seen[r.tag] {
			return nil, fmt.Errorf("%w: duplicate tag %#x", ErrBadTable, r.tag)
		}
		seen[r.tag] = true
		if r.off%8 != 0 {
			return nil, fmt.Errorf("%w: region %#x offset %d not 8-byte aligned", ErrBadTable, r.tag, r.off)
		}
		// Overflow-safe bounds: off and ln are untrusted uint64s.
		if r.off < minOff || r.off > uint64(len(b)) || r.ln > uint64(len(b))-r.off {
			return nil, fmt.Errorf("%w: region %#x [%d,+%d) outside envelope of %d bytes",
				ErrBadTable, r.tag, r.off, r.ln, len(b))
		}
		// Regions are laid out in table order; requiring monotonic,
		// non-overlapping placement makes overlap checking O(1) per entry.
		minOff = uint64(align8(int(r.off + r.ln)))
		regions[i] = r
	}

	env := &Envelope{data: b, regions: regions, mapped: isMapped, release: release}
	return env, nil
}

// Region returns the payload bytes of the region with the given tag. The
// returned slice aliases the envelope's backing bytes (mapped or heap) —
// zero copy. ok is false if the tag is absent.
func (e *Envelope) Region(tag uint32) (payload []byte, ok bool) {
	for _, r := range e.regions {
		if r.tag == tag {
			return e.data[r.off : r.off+r.ln : r.off+r.ln], true
		}
	}
	return nil, false
}

// Tags returns the region tags in table order.
func (e *Envelope) Tags() []uint32 {
	out := make([]uint32, len(e.regions))
	for i, r := range e.regions {
		out[i] = r.tag
	}
	return out
}

// Size returns the total envelope length in bytes.
func (e *Envelope) Size() int64 { return int64(len(e.data)) }

// Mapped reports whether the envelope's bytes are an mmap'd file rather
// than a heap buffer.
func (e *Envelope) Mapped() bool { return e.mapped }

// Bytes returns the whole envelope's backing bytes.
func (e *Envelope) Bytes() []byte { return e.data }

// VerifyChecksums recomputes every region's CRC against the table. It
// faults every page of a mapped envelope, so it is opt-in: heap loads and
// integrity sweeps call it, the O(1) mmap open path does not.
func (e *Envelope) VerifyChecksums() error {
	for _, r := range e.regions {
		got := crc32.Checksum(e.data[r.off:r.off+r.ln], castagnoli)
		if got != r.crc {
			return fmt.Errorf("%w: region %#x CRC %#x, table says %#x", ErrChecksum, r.tag, got, r.crc)
		}
	}
	return nil
}

// Close releases the mapping, if any. Idempotent. The caller must
// guarantee no view derived from this envelope is used afterwards —
// touching unmapped memory faults the process, which is why eviction
// paths close only after a grace period with no new readers.
func (e *Envelope) Close() error {
	if e == nil || e.closed.Swap(true) {
		return nil
	}
	e.data = nil
	e.regions = nil
	if e.release != nil {
		return e.release()
	}
	return nil
}

// mappedBytes tracks the process-wide total of bytes currently mmap'd via
// OpenFile, for the ustridx_mapped_bytes gauge.
var mappedBytes atomic.Int64

// MappedBytes returns the total bytes of index envelopes currently mapped
// into this process. Virtual, not resident: pages fault in on first touch.
func MappedBytes() int64 { return mappedBytes.Load() }

// U64s reinterprets region bytes as []uint64 without copying. The region
// must be 8-byte aligned (guaranteed by Open for table-derived slices) and
// a multiple of 8 bytes long.
func U64s(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: uint64 region length %d not a multiple of 8", ErrBadTable, len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, fmt.Errorf("%w: uint64 region base not 8-byte aligned", ErrBadTable)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// I32s reinterprets region bytes as []int32 without copying.
func I32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: int32 region length %d not a multiple of 4", ErrBadTable, len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, fmt.Errorf("%w: int32 region base not 4-byte aligned", ErrBadTable)
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// F64s reinterprets region bytes as []float64 without copying.
func F64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: float64 region length %d not a multiple of 8", ErrBadTable, len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, fmt.Errorf("%w: float64 region base not 8-byte aligned", ErrBadTable)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// F32s reinterprets region bytes as []float32 without copying.
func F32s(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: float32 region length %d not a multiple of 4", ErrBadTable, len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, fmt.Errorf("%w: float32 region base not 4-byte aligned", ErrBadTable)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func i32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func f32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }
