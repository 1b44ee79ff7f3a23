package mapped

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func buildSample(t *testing.T) []byte {
	t.Helper()
	var b Builder
	b.AddU64s(0x10, []uint64{1, 2, 3, 0xdeadbeefcafef00d})
	b.AddI32s(0x20, []int32{-1, 0, 7}) // odd byte count → padding
	b.AddF64s(0x30, []float64{0.5, -2.25})
	b.Add(0x40, []byte("hello")) // unaligned length → padding
	b.Add(0x50, nil)             // empty region
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) || n != b.Size() {
		t.Fatalf("WriteTo wrote %d bytes, buffer %d, Size %d", n, buf.Len(), b.Size())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := buildSample(t)
	env, err := Open(raw)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := env.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums: %v", err)
	}
	if got := env.Tags(); len(got) != 5 {
		t.Fatalf("Tags = %v, want 5 entries", got)
	}

	u, ok := env.Region(0x10)
	if !ok {
		t.Fatal("region 0x10 missing")
	}
	u64, err := U64s(u)
	if err != nil {
		t.Fatalf("U64s: %v", err)
	}
	if len(u64) != 4 || u64[3] != 0xdeadbeefcafef00d {
		t.Fatalf("u64 view = %v", u64)
	}

	i, _ := env.Region(0x20)
	i32, err := I32s(i)
	if err != nil {
		t.Fatalf("I32s: %v", err)
	}
	if len(i32) != 3 || i32[0] != -1 || i32[2] != 7 {
		t.Fatalf("i32 view = %v", i32)
	}

	f, _ := env.Region(0x30)
	f64, err := F64s(f)
	if err != nil {
		t.Fatalf("F64s: %v", err)
	}
	if len(f64) != 2 || f64[1] != -2.25 {
		t.Fatalf("f64 view = %v", f64)
	}

	h, _ := env.Region(0x40)
	if string(h) != "hello" {
		t.Fatalf("raw region = %q", h)
	}
	if e, ok := env.Region(0x50); !ok || len(e) != 0 {
		t.Fatalf("empty region = %v, %v", e, ok)
	}
	if _, ok := env.Region(0x99); ok {
		t.Fatal("absent tag reported present")
	}
}

func TestOpenFileMmap(t *testing.T) {
	raw := buildSample(t)
	path := filepath.Join(t.TempDir(), "sample.idx")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := MappedBytes()
	env, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if Available() != env.Mapped() {
		t.Fatalf("Mapped() = %v, platform Available() = %v", env.Mapped(), Available())
	}
	if Available() && MappedBytes() != before+env.Size() {
		t.Fatalf("MappedBytes = %d, want %d", MappedBytes(), before+env.Size())
	}
	u, _ := env.Region(0x10)
	u64, err := U64s(u)
	if err != nil || u64[3] != 0xdeadbeefcafef00d {
		t.Fatalf("mapped view = %v, %v", u64, err)
	}
	if err := env.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums over mapping: %v", err)
	}
	if err := env.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := env.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if MappedBytes() != before {
		t.Fatalf("MappedBytes after Close = %d, want %d", MappedBytes(), before)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	raw := buildSample(t)

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[0] ^= 0xff
		if _, err := Open(b); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("short buffer", func(t *testing.T) {
		if _, err := Open(raw[:len(Magic)]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := Open(raw[:len(raw)-8]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("table bit flip", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[headerSize+8] ^= 1 // first region's offset
		if _, err := Open(b); !errors.Is(err, ErrBadTable) {
			t.Fatalf("err = %v, want ErrBadTable", err)
		}
	})
	t.Run("hostile region count", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(b[12:], 1<<30)
		if _, err := Open(b); err == nil {
			t.Fatal("hostile nregions accepted")
		}
	})
	t.Run("payload bit flip passes Open but fails VerifyChecksums", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[len(b)-10] ^= 0x80 // somewhere in a payload region
		env, err := Open(b)
		if err != nil {
			t.Fatalf("structural open should accept payload corruption: %v", err)
		}
		if err := env.VerifyChecksums(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("VerifyChecksums = %v, want ErrChecksum", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(b[8:], 99)
		if _, err := Open(b); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("err = %v, want ErrBadHeader", err)
		}
	})
}

func TestViewAlignmentChecks(t *testing.T) {
	buf := make([]byte, 32)
	if _, err := U64s(buf[1:25]); err == nil {
		t.Fatal("unaligned base accepted by U64s")
	}
	if _, err := U64s(buf[:12]); err == nil {
		t.Fatal("ragged length accepted by U64s")
	}
	if v, err := U64s(nil); err != nil || v != nil {
		t.Fatalf("empty U64s = %v, %v", v, err)
	}
	if _, err := I32s(buf[:6]); err == nil {
		t.Fatal("ragged length accepted by I32s")
	}
	if _, err := F64s(buf[:9]); err == nil {
		t.Fatal("ragged length accepted by F64s")
	}
}

func TestF32sRoundTrip(t *testing.T) {
	var b Builder
	b.AddF32s(0x60, []float32{1.5, -0.25, 3}) // odd byte count → padding
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	env, err := Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, _ := env.Region(0x60)
	f32, err := F32s(r)
	if err != nil || len(f32) != 3 || f32[1] != -0.25 {
		t.Fatalf("f32 view = %v, %v", f32, err)
	}
	if _, err := F32s(r[:6]); err == nil {
		t.Fatal("ragged length accepted by F32s")
	}
}

func TestBuilderRejectsDuplicateTags(t *testing.T) {
	var b Builder
	b.Add(1, []byte("a"))
	b.Add(1, []byte("b"))
	if _, err := b.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrBadTable) {
		t.Fatalf("err = %v, want ErrBadTable", err)
	}
}
