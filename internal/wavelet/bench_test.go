package wavelet

import (
	"math/rand"
	"testing"
)

var sink int

// benchTree is the shape the compressed backend serves: a BWT-sized
// sequence over a protein-sized alphabet (depth 5), probed at random.
func benchTree() (*Tree, []byte, []int) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 13000)
	for i := range data {
		data[i] = byte(rng.Intn(22))
	}
	at := make([]int, 4096)
	for i := range at {
		at[i] = rng.Intn(len(data))
	}
	return New(data), data, at
}

// BenchmarkLF chains each step on the last, as a Locate walk does.
func BenchmarkLF(b *testing.B) {
	tr, _, _ := benchTree()
	b.ReportAllocs()
	b.ResetTimer()
	p := 1
	for i := 0; i < b.N; i++ {
		p = tr.LF(p)
	}
	sink += p
}

func BenchmarkRank(b *testing.B) {
	tr, data, at := benchTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tr.Rank(data[i&4095], at[i&4095])
	}
}

func BenchmarkRank2(b *testing.B) {
	tr, data, at := benchTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := tr.Rank2(data[i&4095], at[i&4095], at[(i+1)&4095])
		sink += lo + hi
	}
}
