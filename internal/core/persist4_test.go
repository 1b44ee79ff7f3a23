package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/mapped"
	"repro/internal/ustring"
)

// queryGrid runs the full Search/SearchHits/SearchTopK/SearchCount grid
// against both backends and fails on any bit-level divergence — the
// equivalence contract exact backends share, here used to prove the
// format-4 load paths (heap views and mmap views) reproduce the built
// index exactly.
func queryGrid(t *testing.T, s *ustring.String, want, got Backend, label string) {
	t.Helper()
	if got.TauMin() != want.TauMin() {
		t.Fatalf("%s: tauMin %v, want %v", label, got.TauMin(), want.TauMin())
	}
	for _, m := range []int{2, 3, 5, 8, 13} {
		for _, p := range gen.Patterns(s, 6, m, 419) {
			for _, tau := range []float64{0.1, 0.2, 0.4, 0.8} {
				a, errA := want.Search(p, tau)
				b, errB := got.Search(p, tau)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s: Search(%q, %v) err %v vs %v", label, p, tau, errA, errB)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: Search(%q, %v) = %v, want %v", label, p, tau, b, a)
				}
				ca, _ := want.SearchCount(p, tau)
				cb, _ := got.SearchCount(p, tau)
				if ca != cb {
					t.Fatalf("%s: SearchCount(%q, %v) = %d, want %d", label, p, tau, cb, ca)
				}
				ha, _ := want.SearchHits(p, tau)
				hb, _ := got.SearchHits(p, tau)
				if !reflect.DeepEqual(ha, hb) {
					t.Fatalf("%s: SearchHits(%q, %v) diverges", label, p, tau)
				}
			}
			for _, k := range []int{1, 3, 10} {
				ka, _ := want.SearchTopK(p, k)
				kb, _ := got.SearchTopK(p, k)
				if !reflect.DeepEqual(ka, kb) {
					t.Fatalf("%s: SearchTopK(%q, %d) diverges", label, p, k)
				}
			}
		}
	}
}

func TestFormat4Equivalence(t *testing.T) {
	s := gen.Single(gen.Config{N: 3000, Theta: 0.3, Seed: 409})
	built, err := BuildCompressed(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := built.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	if !mapped.IsEnvelope(buf.Bytes()) {
		t.Fatal("compressed WriteTo did not produce a format-4 envelope")
	}
	path := filepath.Join(t.TempDir(), "doc.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("stream heap load", func(t *testing.T) {
		got, err := ReadBackend(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadBackend: %v", err)
		}
		queryGrid(t, s, built, got, "stream")
		if !reflect.DeepEqual(got.Source(), s) {
			t.Error("stream-loaded source diverges from original")
		}
	})

	t.Run("file heap load", func(t *testing.T) {
		got, skipped, err := OpenBackendFile(path, false)
		if err != nil {
			t.Fatalf("OpenBackendFile: %v", err)
		}
		if !skipped {
			t.Error("format-4 file load did not report a decode skip")
		}
		queryGrid(t, s, built, got, "file-heap")
	})

	t.Run("file mmap load", func(t *testing.T) {
		got, skipped, err := OpenBackendFile(path, true)
		if err != nil {
			t.Fatalf("OpenBackendFile mmap: %v", err)
		}
		if !skipped {
			t.Error("mmap load did not report a decode skip")
		}
		if mapped.Available() && BackendMappedBytes(got) != int64(buf.Len()) {
			t.Errorf("BackendMappedBytes = %d, want %d", BackendMappedBytes(got), buf.Len())
		}
		queryGrid(t, s, built, got, "mmap")
		// Lazy source: materialises on demand and matches the original.
		if SourceLen(got) != s.Len() {
			t.Errorf("SourceLen = %d, want %d", SourceLen(got), s.Len())
		}
		if !reflect.DeepEqual(got.Source(), s) {
			t.Error("mmap-loaded source diverges from original")
		}
		// Round trip again out of the mapped index: byte-identical copy.
		var again bytes.Buffer
		if _, err := got.(*CompressedIndex).WriteTo(&again); err != nil {
			t.Fatalf("re-save of mapped index: %v", err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Error("re-saved mapped envelope is not byte-identical")
		}
		if err := CloseBackend(got); err != nil {
			t.Fatalf("CloseBackend: %v", err)
		}
	})
}

// TestFormat4ParentFixture pins the file format on both sides of a layout
// change. Both fixtures hold the same document (gen.Single N=120 θ=0.3 seed
// 467, τmin 0.1): testdata/format4_pr11.idx was written before the position
// map existed — per-position Pos and zero-count regions, sample rate 32 —
// and testdata/format4_pr15.idx by the commit that introduced the map. Each
// must open (mapped and streamed), answer exactly like a fresh build and
// re-save byte-identically; a fresh build must serialise to the newest
// fixture's bytes, so the next layout change is held to the same rule.
func TestFormat4ParentFixture(t *testing.T) {
	s := gen.Single(gen.Config{N: 120, Theta: 0.3, Seed: 467})
	built, err := BuildCompressed(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if _, err := built.WriteTo(&fresh); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"format4_pr11.idx", "format4_pr15.idx"} {
		path := filepath.Join("testdata", name)
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if name == "format4_pr15.idx" && !bytes.Equal(fresh.Bytes(), golden) {
			t.Errorf("a fresh build no longer serialises to %s's bytes", name)
		}

		streamed, err := ReadBackend(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("ReadBackend(%s): %v", name, err)
		}
		queryGrid(t, s, built, streamed, name+" stream")

		opened, _, err := OpenBackendFile(path, true)
		if err != nil {
			t.Fatalf("OpenBackendFile(%s): %v", name, err)
		}
		defer CloseBackend(opened)
		queryGrid(t, s, built, opened, name+" mmap")
		var again bytes.Buffer
		if _, err := opened.(*CompressedIndex).WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), golden) {
			t.Errorf("re-saved %s is not byte-identical", name)
		}
	}
}

func TestFormat4CorrelatedEquivalence(t *testing.T) {
	s := &ustring.String{
		Pos: []ustring.Position{
			{{Char: 'e', Prob: .6}, {Char: 'f', Prob: .4}},
			{{Char: 'q', Prob: 1}},
			{{Char: 'z', Prob: .3}, {Char: 'w', Prob: .7}},
		},
		Corr: []ustring.Correlation{{
			At: 2, Char: 'z', DepAt: 0, DepChar: 'e',
			ProbWhenPresent: .9, ProbWhenAbsent: .05,
		}},
	}
	built, err := BuildCompressed(s, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corr.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := OpenBackendFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := built.Search([]byte("eqz"), 0.5)
	b, err := got.Search([]byte("eqz"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(b, []int{0}) {
		t.Errorf("correlated search over mmap = %v, want %v", b, a)
	}
	if !reflect.DeepEqual(got.Source(), s) {
		t.Error("correlated source diverges after envelope round trip")
	}
}

// withRegion re-assembles the envelope raw with one region rewritten, so the
// checksums are valid again and the mutation reaches the structural
// validators and the query path instead of dying in VerifyChecksums.
func withRegion(tb testing.TB, raw []byte, tag uint32, mutate func([]byte) []byte) []byte {
	tb.Helper()
	env, err := mapped.Open(raw)
	if err != nil {
		tb.Fatal(err)
	}
	var b mapped.Builder
	for _, tg := range env.Tags() {
		r, _ := env.Region(tg)
		if tg == tag {
			r = mutate(append([]byte(nil), r...))
		}
		b.Add(tg, r)
	}
	var out bytes.Buffer
	if _, err := b.WriteTo(&out); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// hostileMaps returns a position-map envelope with, in turn, every map bit
// set, every map bit cleared, and the extreme int32s in the deltas: all
// structurally valid, all wrong.
func hostileMaps(tb testing.TB, raw []byte) [][]byte {
	fill := func(v byte) func([]byte) []byte {
		return func(r []byte) []byte {
			for i := range r {
				r[i] = v
			}
			return r
		}
	}
	return [][]byte{
		withRegion(tb, raw, tagMapWords, fill(0xFF)),
		withRegion(tb, raw, tagMapWords, fill(0)),
		withRegion(tb, raw, tagMapDeltas, func(r []byte) []byte {
			for i := 0; i+4 <= len(r); i += 4 {
				v := uint32(math.MaxInt32)
				if i%8 == 0 {
					v = 1 << 31 // math.MinInt32
				}
				binary.LittleEndian.PutUint32(r[i:], v)
			}
			return r
		}),
	}
}

// legacyFixture is an envelope in the layout before the position map.
func legacyFixture(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "format4_pr11.idx"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestFormat4Hostile drives ReadBackend over truncations and bit flips of
// a real envelope: every outcome must be a typed error or a clean load —
// never a panic, never an oversized allocation.
func TestFormat4Hostile(t *testing.T) {
	s := gen.Single(gen.Config{N: 400, Theta: 0.3, Seed: 431})
	built, err := BuildCompressed(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	check := func(t *testing.T, data []byte) {
		t.Helper()
		b, err := ReadBackend(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Mutation landed in padding (not covered by checksums): the load
		// must still answer queries without panicking.
		if _, err := b.Search([]byte("ab"), 0.2); err != nil {
			t.Fatalf("loaded index cannot query: %v", err)
		}
	}

	t.Run("truncations", func(t *testing.T) {
		for _, cut := range []int{0, 1, 7, 8, 31, 32, 33, 100, len(raw) / 2, len(raw) - 1} {
			if cut > len(raw) {
				continue
			}
			check(t, raw[:cut])
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		step := len(raw)/97 + 1
		for off := 0; off < len(raw); off += step {
			data := append([]byte(nil), raw...)
			data[off] ^= 0x40
			check(t, data)
		}
	})
	t.Run("region table zeroed", func(t *testing.T) {
		data := append([]byte(nil), raw...)
		for i := 32; i < 32+24; i++ {
			data[i] = 0
		}
		check(t, data)
	})
	t.Run("position map", func(t *testing.T) {
		short := withRegion(t, raw, tagMapDeltas, func(r []byte) []byte { return r[:len(r)-4] })
		if _, err := ReadBackend(bytes.NewReader(short)); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("delta region one entry short: err = %v, want ErrCorruptIndex", err)
		}
		for i, data := range hostileMaps(t, raw) {
			b, err := ReadBackend(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("hostile map %d: structurally valid envelope rejected: %v", i, err)
			}
			for _, p := range gen.Patterns(s, 8, 2, 433) {
				hits, _ := b.SearchHits(p, 0.1)
				for _, h := range hits {
					if h.Orig < 0 || int(h.Orig) >= s.Len() {
						t.Fatalf("hostile map %d: hit at source position %d of %d", i, h.Orig, s.Len())
					}
				}
				_, _ = b.SearchTopK(p, 5)
			}
		}
	})
}

func FuzzReadBackend(f *testing.F) {
	s := gen.Single(gen.Config{N: 150, Theta: 0.3, Seed: 443})
	cx, err := BuildCompressed(s, 0.1)
	if err != nil {
		f.Fatal(err)
	}
	var env bytes.Buffer
	if _, err := cx.WriteTo(&env); err != nil {
		f.Fatal(err)
	}
	f.Add(env.Bytes())
	f.Add(env.Bytes()[:env.Len()/2])
	f.Add(legacyFixture(f))
	f.Add(withRegion(f, env.Bytes(), tagMapDeltas, func(r []byte) []byte { return r[:len(r)-4] }))
	for _, data := range hostileMaps(f, env.Bytes()) {
		f.Add(data)
	}
	// Plain envelopes: pristine, truncated, with a bit flipped in each
	// region a query dereferences (re-checksummed, so the flip reaches the
	// range proofs) and with those regions out of range; one over an empty
	// transformed text; and the legacy gob plain file.
	plain := plainFuzzEnvelope(f)
	f.Add(plain)
	_, empty := plainEnvelope(f, belowTauMin())
	f.Add(empty)
	f.Add(plain[:len(plain)/2])
	for _, tag := range plainQueryRegions {
		f.Add(withRegion(f, plain, tag, func(r []byte) []byte {
			r[len(r)/2] ^= 0x40
			return r
		}))
	}
	for _, data := range hostilePlain(f, plain) {
		f.Add(data)
	}
	legacyPlain, err := os.ReadFile(filepath.Join("testdata", "format3_plain.idx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacyPlain)
	f.Add([]byte(mapped.Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBackend(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A load that passed full validation must be queryable.
		if _, err := b.Search([]byte("ab"), 0.5); err != nil {
			t.Fatalf("fuzzed index cannot query: %v", err)
		}
		_, _ = b.SearchCount([]byte("a"), 0.9)
		_ = CloseBackend(b)
	})
}

// FuzzQuery drives the query paths over envelopes whose payload bits were
// flipped after writing: the compressed layout, the compressed layout
// before the position map, and the plain layout (layout 0, 1 and 2, modulo
// 3). The envelope is opened the way the mmap fast path opens it —
// structure validated, checksums not — so corrupt rank words, samples,
// suffix-array entries, directories, argmaxes and prefix sums reach backward
// search, the LF walks, the range-maximum extraction and the window
// arithmetic. Such an index may mis-answer; it must never panic, and every
// walk must terminate, and the keep-max table a query fills is sized by a
// source length the envelope's own bytes back.
func FuzzQuery(f *testing.F) {
	s := gen.Single(gen.Config{N: 150, Theta: 0.3, Seed: 443})
	cx, err := BuildCompressed(s, 0.1)
	if err != nil {
		f.Fatal(err)
	}
	var env bytes.Buffer
	if _, err := cx.WriteTo(&env); err != nil {
		f.Fatal(err)
	}
	layouts := [3][]byte{env.Bytes(), legacyFixture(f), plainFuzzEnvelope(f)}
	for _, p := range gen.Patterns(s, 4, 2, 449) {
		f.Add(p, 0.12, 3, uint32(len(layouts[0])/2), byte(0x10), uint8(0))
		f.Add(p, 0.12, 3, uint32(len(layouts[1])/2), byte(0x10), uint8(1))
	}
	f.Add([]byte("ab"), 0.5, 1, uint32(0), byte(0), uint8(0)) // pristine envelopes
	f.Add([]byte("ab"), 0.5, 1, uint32(0), byte(0), uint8(1))
	f.Add([]byte{0xFF, 0}, 0.9, 0, uint32(len(layouts[0])-9), byte(0xFF), uint8(0))
	f.Add([]byte("ab"), 0.5, 1, uint32(0), byte(0), uint8(2))
	for i, tag := range plainQueryRegions {
		at := uint32(regionOffset(f, layouts[2], tag))
		for j, p := range gen.Patterns(s, 2, 1+i+3*(i%2), 451) {
			f.Add(p, 0.12, 3, at, byte(0x10<<j), uint8(2))
		}
	}

	f.Fuzz(func(t *testing.T, p []byte, tau float64, k int, at uint32, flip byte, layout uint8) {
		raw := layouts[layout%3]
		data := append([]byte(nil), raw...)
		// Flip a run of bytes, not one: a lone flip rarely lands where a
		// short query reads.
		for i := 0; i < 64; i++ {
			data[(int(at)+i*97)%len(data)] ^= flip
		}
		e, err := mapped.Open(data)
		if err != nil {
			return
		}
		b, err := backendFromEnvelope(e, false)
		if err != nil {
			return
		}
		// The keep-max table is sized by the source length, which the
		// source offsets region (4 bytes per entry) must back.
		if sl := SourceLen(b); 4*sl > len(data) {
			t.Fatalf("source length %d is not backed by a %d-byte envelope", sl, len(data))
		}
		_, _ = b.SearchHits(p, tau)
		_, _ = b.SearchTopK(p, k)
		_, _ = b.SearchCount(p, tau)
	})
}
