package wavelet

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rank"
)

func bruteRank(data []byte, c byte, i int) int {
	if i > len(data) {
		i = len(data)
	}
	r := 0
	for k := 0; k < i; k++ {
		if data[k] == c {
			r++
		}
	}
	return r
}

func TestAccessSmall(t *testing.T) {
	data := []byte("abracadabra")
	tr := New(data)
	if tr.Len() != len(data) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Sigma() != 5 {
		t.Fatalf("Sigma = %d, want 5", tr.Sigma())
	}
	for i, c := range data {
		if got := tr.Access(i); got != c {
			t.Errorf("Access(%d) = %c, want %c", i, got, c)
		}
	}
}

func TestRankSmall(t *testing.T) {
	data := []byte("abracadabra")
	tr := New(data)
	for _, c := range []byte("abrcdz") {
		for i := 0; i <= len(data); i++ {
			if got, want := tr.Rank(c, i), bruteRank(data, c, i); got != want {
				t.Errorf("Rank(%c, %d) = %d, want %d", c, i, got, want)
			}
		}
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	data := []byte("aaaa")
	tr := New(data)
	if tr.Sigma() != 1 || tr.Access(2) != 'a' {
		t.Fatal("single-symbol tree broken")
	}
	if tr.Rank('a', 3) != 3 || tr.Rank('b', 3) != 0 {
		t.Error("single-symbol rank broken")
	}
}

func TestEmpty(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 || tr.Rank('a', 5) != 0 {
		t.Error("empty tree misbehaves")
	}
}

func TestFullByteRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 2000)
	for i := range data {
		data[i] = byte(rng.Intn(256)) // includes 0x00 and 0xFF
	}
	tr := New(data)
	for i := 0; i < len(data); i += 7 {
		if got := tr.Access(i); got != data[i] {
			t.Fatalf("Access(%d) = %d, want %d", i, got, data[i])
		}
	}
	for trial := 0; trial < 300; trial++ {
		c := byte(rng.Intn(256))
		i := rng.Intn(len(data) + 1)
		if got, want := tr.Rank(c, i), bruteRank(data, c, i); got != want {
			t.Fatalf("Rank(%d, %d) = %d, want %d", c, i, got, want)
		}
	}
}

// Property: Rank/Access agree with the brute force on random data of random
// alphabet sizes.
func TestPropertyAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		sigma := 1 + rng.Intn(30)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte('A' + rng.Intn(sigma))
		}
		tr := New(data)
		for q := 0; q < 50; q++ {
			i := rng.Intn(n)
			if tr.Access(i) != data[i] {
				return false
			}
			c := byte('A' + rng.Intn(sigma+2)) // sometimes absent
			j := rng.Intn(n + 1)
			if tr.Rank(c, j) != bruteRank(data, c, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// symbolCounts tallies data per code of tr's alphabet — what FromParts takes.
func symbolCounts(tr *Tree, data []byte) []int32 {
	counts := make([]int32, tr.Sigma())
	for _, c := range data {
		counts[tr.code[c]]++
	}
	return counts
}

// The table-driven kernels against a naive scan, at every position, over
// alphabets that leave empty nodes (non-power-of-two σ), have no levels at
// all (σ = 1) or fill the byte range, and lengths straddling the word and
// block boundaries of internal/rank: LF(i) = C[Access(i)] + Rank(Access(i), i),
// Rank2 = two Ranks, and a tree reassembled by FromParts holds the same
// tables as the one New built.
func TestKernelsAgainstNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sigma := range []int{1, 2, 3, 22, 24, 33, 256} {
		for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 4097} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(sigma) * 255 / max(sigma-1, 1))
			}
			tr := New(data)
			re, err := FromParts(n, tr.Alphabet(), symbolCounts(tr, data), tr.Levels())
			if err != nil {
				t.Fatalf("σ=%d n=%d: FromParts: %v", sigma, n, err)
			}
			if !reflect.DeepEqual(re.step, tr.step) || !reflect.DeepEqual(re.leaf, tr.leaf) {
				t.Fatalf("σ=%d n=%d: FromParts tables differ from New's", sigma, n)
			}
			var smaller [257]int // smaller[c] = positions holding a symbol < c
			for _, c := range data {
				smaller[int(c)+1]++
			}
			for c := 1; c <= 256; c++ {
				smaller[c] += smaller[c-1]
			}
			var seen [256]int // occurrences before the current position
			for i, c := range data {
				if got := tr.Access(i); got != c {
					t.Fatalf("σ=%d n=%d: Access(%d) = %d, want %d", sigma, n, i, got, c)
				}
				if got, want := tr.LF(i), smaller[c]+seen[c]; got != want {
					t.Fatalf("σ=%d n=%d: LF(%d) = %d, want %d", sigma, n, i, got, want)
				}
				for _, q := range []byte{c, byte(rng.Intn(256))} {
					if got := tr.Rank(q, i); got != seen[q] {
						t.Fatalf("σ=%d n=%d: Rank(%d, %d) = %d, want %d", sigma, n, q, i, got, seen[q])
					}
					j := i + rng.Intn(n-i+1)
					ri, rj := tr.Rank2(q, i, j)
					if ri != seen[q] || rj != tr.Rank(q, j) {
						t.Fatalf("σ=%d n=%d: Rank2(%d, %d, %d) = (%d, %d), want (%d, %d)",
							sigma, n, q, i, j, ri, rj, seen[q], tr.Rank(q, j))
					}
				}
				seen[c]++
			}
			for c := 0; c < 256; c++ {
				if got := tr.Rank(byte(c), n+3); got != seen[c] {
					t.Fatalf("σ=%d n=%d: Rank(%d, past end) = %d, want %d", sigma, n, c, got, seen[c])
				}
				if got := tr.Rank(byte(c), -2); got != 0 {
					t.Fatalf("σ=%d n=%d: Rank(%d, before start) = %d, want 0", sigma, n, c, got)
				}
			}
		}
	}
}

// Level bits that disagree with the tables (a corrupt, unverified mapping)
// must mis-answer, never index out of range.
func TestKernelsClampOverCorruptLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sigma := range []int{3, 22, 33} {
		data := make([]byte, 700)
		for i := range data {
			data[i] = byte(rng.Intn(sigma))
		}
		tr := New(data)
		levels := make([]*rank.Bits, len(tr.Levels()))
		for d, lv := range tr.Levels() {
			words := append([]uint64(nil), lv.Words()...)
			for w := range words {
				words[w] = rng.Uint64()
			}
			var err error
			if levels[d], err = rank.FromParts(words, lv.BlockCounts(), lv.Len()); err != nil {
				t.Fatal(err)
			}
		}
		bad, err := FromParts(len(data), tr.Alphabet(), symbolCounts(tr, data), levels)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			bad.Access(i)
			bad.LF(i)
			bad.Rank(data[i], i)
			bad.Rank2(data[i], i, len(data))
		}
	}
}

func TestBytes(t *testing.T) {
	if New([]byte("hello world")).Bytes() <= 0 {
		t.Error("Bytes must be positive")
	}
}
