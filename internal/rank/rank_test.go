package rank

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func bruteRank1(bs []bool, i int) int {
	if i > len(bs) {
		i = len(bs)
	}
	r := 0
	for k := 0; k < i; k++ {
		if bs[k] {
			r++
		}
	}
	return r
}

func TestRankSmall(t *testing.T) {
	bs := []bool{true, false, true, true, false, false, true}
	v := FromBools(bs)
	if v.Len() != 7 || v.Ones() != 4 {
		t.Fatalf("Len=%d Ones=%d", v.Len(), v.Ones())
	}
	for i := 0; i <= 7; i++ {
		if got, want := v.Rank1(i), bruteRank1(bs, i); got != want {
			t.Errorf("Rank1(%d) = %d, want %d", i, got, want)
		}
	}
	for i, want := range []int{0, 2, 3, 6} {
		if got := v.Select1(i); got != want {
			t.Errorf("Select1(%d) = %d, want %d", i, got, want)
		}
	}
	if v.Select1(4) != -1 || v.Select1(-1) != -1 {
		t.Error("out-of-range select must return -1")
	}
}

func TestRankAcrossBlockBoundaries(t *testing.T) {
	// Sizes straddling the 512-bit block and 64-bit word boundaries.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 1024, 3000} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = rng.Intn(3) == 0
		}
		v := FromBools(bs)
		for i := 0; i <= n; i += 1 + i/17 {
			if got, want := v.Rank1(i), bruteRank1(bs, i); got != want {
				t.Fatalf("n=%d Rank1(%d) = %d, want %d", n, i, got, want)
			}
		}
	}
}

// The fused step must agree with (Rank1, Get) at every position, including
// those of a short last block (fewer than 8 words) and a short last word.
func TestRank1GetMatchesRank1AndGet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 63, 64, 65, 511, 512, 513, 575, 576, 1024, 4097} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = rng.Intn(3) == 0
		}
		v := FromBools(bs)
		for i := 0; i < n; i++ {
			ones, bit := v.Rank1Get(i)
			if ones != v.Rank1(i) || (bit == 1) != v.Get(i) || bit>>1 != 0 {
				t.Fatalf("n=%d Rank1Get(%d) = (%d, %d), want (%d, %v)", n, i, ones, bit, v.Rank1(i), v.Get(i))
			}
		}
	}
}

// AnySet must agree with a rank difference on every interval, across word
// and block boundaries.
func TestAnySetMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 63, 64, 65, 200, 513} {
		for _, density := range []int{2, 40} {
			bs := make([]bool, n)
			for i := range bs {
				bs[i] = rng.Intn(density) == 0
			}
			v := FromBools(bs)
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					if got, want := v.AnySet(lo, hi), v.Rank1(hi) > v.Rank1(lo); got != want {
						t.Fatalf("n=%d AnySet(%d, %d) = %v, want %v", n, lo, hi, got, want)
					}
				}
			}
		}
	}
}

func TestSelectInvertsRank(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2000)
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = rng.Intn(2) == 0
		}
		v := FromBools(bs)
		for k := 0; k < v.Ones(); k += 1 + k/9 {
			p := v.Select1(k)
			if p < 0 || !v.Get(p) || v.Rank1(p) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEmptyAndEdges(t *testing.T) {
	v := FromBools(nil)
	if v.Rank1(0) != 0 || v.Rank1(10) != 0 || v.Select1(0) != -1 {
		t.Error("empty vector misbehaves")
	}
	v2 := FromBools([]bool{true})
	if v2.Rank1(-5) != 0 {
		t.Error("negative rank index must clamp to 0")
	}
	if v2.Rank1(100) != 1 {
		t.Error("overlong rank index must clamp to n")
	}
	if v2.Bytes() <= 0 {
		t.Error("Bytes must be positive")
	}
}
