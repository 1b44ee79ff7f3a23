package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/mapped"
	"repro/internal/ustring"
)

// plainEnvelope builds the plain index of s and its serialised envelope.
func plainEnvelope(tb testing.TB, s *ustring.String, opts ...Option) (*Index, []byte) {
	tb.Helper()
	ix, err := Build(s, 0.1, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if n != int64(buf.Len()) || !mapped.IsEnvelope(buf.Bytes()) {
		tb.Fatalf("plain WriteTo reported %d bytes of %d, envelope %v", n, buf.Len(), mapped.IsEnvelope(buf.Bytes()))
	}
	return ix, buf.Bytes()
}

// TestPlainEnvelopeEquivalence: a plain index written as an envelope and
// opened from a stream, from a file on the heap and from a mapped file
// answers the query grid exactly like the built index, reports the same
// Bytes() and source, and re-saves byte-identically.
func TestPlainEnvelopeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *ustring.String
		opts []Option
	}{
		{"plain", gen.Single(gen.Config{N: 3000, Theta: 0.3, Seed: 409}), nil},
		{"correlated", gen.Single(gen.Config{N: 1500, Theta: 0.4, Correlations: 12, Seed: 411}), nil},
		{"scan fallback", gen.Single(gen.Config{N: 1200, Theta: 0.3, Seed: 413}), []Option{WithLongCap(14)}},
		// No factor reaches τmin, so the transformed text is empty.
		{"empty text", belowTauMin(), nil},
		{"empty string", &ustring.String{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, raw := plainEnvelope(t, tc.s, tc.opts...)
			path := filepath.Join(t.TempDir(), "doc.idx")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			streamed, err := ReadBackend(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadBackend: %v", err)
			}
			heap, skipped, err := OpenBackendFile(path, false)
			if err != nil || !skipped {
				t.Fatalf("OpenBackendFile heap: skipped %v, %v", skipped, err)
			}
			mm, skipped, err := OpenBackendFile(path, true)
			if err != nil || !skipped {
				t.Fatalf("OpenBackendFile mmap: skipped %v, %v", skipped, err)
			}
			defer CloseBackend(mm)
			if mapped.Available() && BackendMappedBytes(mm) != int64(len(raw)) {
				t.Errorf("BackendMappedBytes = %d, want %d", BackendMappedBytes(mm), len(raw))
			}
			for label, got := range map[string]Backend{"stream": streamed, "heap": heap, "mmap": mm} {
				if got.Kind() != BackendPlain {
					t.Fatalf("%s: kind %q", label, got.Kind())
				}
				if got.Bytes() != built.Bytes() {
					t.Errorf("%s: Bytes() = %d, built index holds %d", label, got.Bytes(), built.Bytes())
				}
				if SourceLen(got) != tc.s.Len() {
					t.Errorf("%s: SourceLen = %d, want %d", label, SourceLen(got), tc.s.Len())
				}
				queryGrid(t, tc.s, built, got, tc.name+" "+label)
				for _, p := range [][]byte{{'A'}, {'A', 'B'}} {
					a, _ := built.Search(p, 0.1)
					b, err := got.Search(p, 0.1)
					if err != nil || !reflect.DeepEqual(a, b) {
						t.Errorf("%s: Search(%q) = %v, %v; built index answers %v", label, p, b, err, a)
					}
				}
				if !reflect.DeepEqual(got.Source(), tc.s) {
					t.Errorf("%s: source diverges from the original", label)
				}
				var again bytes.Buffer
				if _, err := got.WriteTo(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), raw) {
					t.Errorf("%s: re-saved envelope is not byte-identical", label)
				}
			}
		})
	}
}

// TestPlainSpaceCountsHeldArrays: Space counts Pos once — the dedup keys
// alias it — and the log probabilities exactly when correlations keep
// them.
func TestPlainSpaceCountsHeldArrays(t *testing.T) {
	for _, corr := range []int{0, 6} {
		s := gen.Single(gen.Config{N: 800, Theta: 0.3, Correlations: corr, Seed: 419})
		ix, err := Build(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		n := ix.Engine().Text().Len()
		sp := ix.Space()
		if sp.PosAndKeys != 4*n {
			t.Errorf("corr %d: PosAndKeys = %d, want %d (Pos once)", corr, sp.PosAndKeys, 4*n)
		}
		wantProb := 12*(n+1) + 8*len(ix.logp)
		if sp.ProbArray != wantProb || (corr > 0) != (len(ix.logp) == n) {
			t.Errorf("corr %d: ProbArray = %d, want %d with %d log probabilities", corr, sp.ProbArray, wantProb, len(ix.logp))
		}
		if ix.Engine().Text().LCP() != nil || ix.Engine().Text().Rank() != nil {
			t.Errorf("corr %d: the built index keeps build-only suffix arrays", corr)
		}
	}
}

// TestPlainLegacyFixture opens testdata/format3_plain.idx, a gob (format 3)
// plain file written before plain envelopes existed: gen.Single N=60 θ=0.3,
// four correlations, seed 457, τmin 0.1. Streamed, read from a file and
// through the mmap path (which falls back to decoding a gob file), it must
// answer exactly like a fresh build, on a grid that includes every window
// over a correlated position.
func TestPlainLegacyFixture(t *testing.T) {
	s := gen.Single(gen.Config{N: 60, Theta: 0.3, Correlations: 4, Seed: 457})
	if len(s.Corr) == 0 {
		t.Fatal("fixture document lost its correlations")
	}
	fresh, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "format3_plain.idx")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.IsEnvelope(raw) {
		t.Fatal("the legacy fixture is an envelope")
	}
	streamed, err := ReadBackend(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadBackend: %v", err)
	}
	opened := map[string]Backend{"stream": streamed}
	for _, mm := range []bool{false, true} {
		b, skipped, err := OpenBackendFile(path, mm)
		if err != nil || skipped {
			t.Fatalf("OpenBackendFile(mmap %v): skipped %v, %v", mm, skipped, err)
		}
		opened[map[bool]string{false: "heap", true: "mmap"}[mm]] = b
	}

	// The grid: every window of length 1–5 that covers a correlated
	// position, spelled with the correlated character there and each choice
	// of its partner when the window covers it too, plus random patterns.
	var pats [][]byte
	for _, c := range s.Corr {
		for m := 1; m <= 5; m++ {
			for start := max(c.At-m+1, 0); start <= c.At && start+m <= s.Len(); start++ {
				partners := []byte{0}
				if c.DepAt >= start && c.DepAt < start+m {
					partners = partners[:0]
					for _, ch := range s.Pos[c.DepAt] {
						partners = append(partners, ch.Char)
					}
				}
				for _, dep := range partners {
					p := make([]byte, m)
					for k := range p {
						p[k] = s.Pos[start+k][0].Char
					}
					p[c.At-start] = c.Char
					if dep != 0 {
						p[c.DepAt-start] = dep
					}
					pats = append(pats, p)
				}
			}
		}
	}
	correlated := 0
	for _, p := range pats {
		hits, _ := fresh.SearchHits(p, 0.1)
		correlated += len(hits)
	}
	if correlated == 0 {
		t.Fatal("no correlated window of the grid matches")
	}
	for _, m := range []int{2, 3, 6, 9} {
		pats = append(pats, gen.Patterns(s, 6, m, 461)...)
	}
	for label, got := range opened {
		if got.Kind() != BackendPlain {
			t.Fatalf("%s: kind %q", label, got.Kind())
		}
		for _, p := range pats {
			for _, tau := range []float64{0.1, 0.2, 0.4, 0.7} {
				a, _ := fresh.SearchHits(p, tau)
				b, _ := got.SearchHits(p, tau)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: SearchHits(%q, %v) = %v, fresh build %v", label, p, tau, b, a)
				}
				ca, _ := fresh.SearchCount(p, tau)
				cb, _ := got.SearchCount(p, tau)
				if ca != cb {
					t.Fatalf("%s: SearchCount(%q, %v) = %d, fresh build %d", label, p, tau, cb, ca)
				}
			}
			ka, _ := fresh.SearchTopK(p, 4)
			kb, _ := got.SearchTopK(p, 4)
			if !reflect.DeepEqual(ka, kb) {
				t.Fatalf("%s: SearchTopK(%q, 4) = %v, fresh build %v", label, p, kb, ka)
			}
		}
	}
}

// TestCompressedEnvelopeBytesPinned pins the compressed envelope of a fixed
// input to the SHA-256 of the bytes the commit before plain envelopes wrote.
// With correlations, whose region the plain envelope shares the writer of,
// the pin covers every other region, tag and length included: the
// correlations region is gob, whose type ids depend on what the process
// gob-encoded before, so it is checked by decoding instead.
func TestCompressedEnvelopeBytesPinned(t *testing.T) {
	for corr, want := range map[int]string{
		0: "fd26526b4c194e1717119700bcf3fdeac9940e58de1f4b3cae25a9ee7d8fa2bf",
		3: "f700442c4139a9708ab17b9cae14edf64bd67a981c7499c96e2a64a69c824ff7",
	} {
		s := gen.Single(gen.Config{N: 300, Theta: 0.3, Correlations: corr, Seed: 461})
		cx, err := BuildCompressed(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := cx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if corr > 0 {
			env, err := mapped.Open(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, tag := range env.Tags() {
				if tag == tagCorr {
					continue
				}
				r, _ := env.Region(tag)
				_ = binary.Write(h, binary.LittleEndian, tag)
				_ = binary.Write(h, binary.LittleEndian, uint64(len(r)))
				h.Write(r)
			}
			copy(sum[:], h.Sum(nil))
			back, err := ReadBackend(bytes.NewReader(buf.Bytes()))
			if err != nil || !reflect.DeepEqual(back.Source().Corr, s.Corr) {
				t.Fatalf("correlations do not round-trip: %v", err)
			}
		}
		if hex.EncodeToString(sum[:]) != want {
			t.Errorf("correlations %d: envelope SHA-256 %x, want %s", corr, sum, want)
		}
	}
}

// regionOffset returns the byte offset of the region tagged tag in the
// envelope raw, read from its region table.
func regionOffset(tb testing.TB, raw []byte, tag uint32) int {
	tb.Helper()
	for i := 0; i < int(binary.LittleEndian.Uint32(raw[12:])); i++ {
		e := raw[32+24*i:]
		if binary.LittleEndian.Uint32(e) == tag {
			return int(binary.LittleEndian.Uint64(e[8:]))
		}
	}
	tb.Fatalf("no region %#x", tag)
	return 0
}

// plainQueryRegions are the plain envelope regions holding int32s a query
// dereferences, which the open must prove in range.
var plainQueryRegions = []uint32{tagSA, tagPos, tagDir, tagShortArgmax}

// hostilePlain returns the plain envelope raw with, in turn, every int32 of
// each query region set to a large positive value — re-checksummed, so the
// mutation reaches the open's range proofs, which must reject it.
func hostilePlain(tb testing.TB, raw []byte) [][]byte {
	var out [][]byte
	for _, tag := range plainQueryRegions {
		out = append(out, withRegion(tb, raw, tag, func(r []byte) []byte {
			for i := 0; i+4 <= len(r); i += 4 {
				binary.LittleEndian.PutUint32(r[i:], 1<<30+uint32(i))
			}
			return r
		}))
	}
	return out
}

// TestPlainEnvelopeHostile: truncations, bit flips and out-of-range int32s
// in the regions queries dereference are typed errors or clean loads, and
// an envelope opened without checksums — as mmap opens — may answer
// wrongly but never panics.
func TestPlainEnvelopeHostile(t *testing.T) {
	s := gen.Single(gen.Config{N: 400, Theta: 0.3, Correlations: 3, Seed: 431})
	_, raw := plainEnvelope(t, s)
	check := func(t *testing.T, data []byte) {
		t.Helper()
		b, err := ReadBackend(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("untyped error: %v", err)
			}
		} else if _, err := b.Search([]byte("ab"), 0.2); err != nil {
			t.Fatalf("loaded index cannot query: %v", err)
		}
		env, err := mapped.Open(data)
		if err != nil {
			return
		}
		if b, err = backendFromEnvelope(env, false); err != nil {
			return
		}
		for _, m := range []int{1, 2, 3, 12, 20} {
			for _, p := range gen.Patterns(s, 3, m, 433) {
				_, _ = b.SearchHits(p, 0.1)
				_, _ = b.SearchTopK(p, 5)
				_, _ = b.SearchCount(p, 0.3)
			}
		}
	}
	for _, cut := range []int{0, 8, 33, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		check(t, raw[:cut])
	}
	for _, tag := range plainQueryRegions {
		off := regionOffset(t, raw, tag)
		for i := 0; i < 16; i++ {
			data := append([]byte(nil), raw...)
			data[off+i*13] ^= 0x40
			check(t, data)
		}
	}
	for _, tag := range plainQueryRegions {
		check(t, withRegion(t, raw, tag, func(r []byte) []byte {
			for i := range r {
				r[i] = 0xFF
			}
			return r
		}))
	}
	for i, data := range hostilePlain(t, raw) {
		if _, err := ReadBackend(bytes.NewReader(data)); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("hostile region %d: err = %v, want ErrCorruptIndex", i, err)
		}
	}
}

// belowTauMin is a one-position string whose every choice is below the
// τmin of 0.1 the plain tests build with: its transformed text is empty.
func belowTauMin() *ustring.String {
	pos := make(ustring.Position, 11)
	for k := range pos {
		pos[k] = ustring.Choice{Char: 'A' + byte(k), Prob: 1.0 / 11}
	}
	return &ustring.String{Pos: []ustring.Position{pos}}
}

// plainFuzzEnvelope is the plain envelope the fuzzers start from: long
// enough for a bucket directory, with correlations so the correction path
// runs over corrupt bytes too.
func plainFuzzEnvelope(tb testing.TB) []byte {
	_, raw := plainEnvelope(tb, gen.Single(gen.Config{N: 300, Theta: 0.3, Correlations: 3, Seed: 443}))
	return raw
}
