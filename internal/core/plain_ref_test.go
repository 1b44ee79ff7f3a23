package core

import (
	"bytes"
	"container/heap"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// refQuery, refTopK and refCount are the plain engine's query paths as they
// stood before short ranges were scored once per query: every RMQ pop asks
// the level's rmq.Block for the argmax, then ci for its value. They are
// kept as the reference the shortMax extraction must reproduce hit for hit
// and candidate for candidate; the suffix range and the long paths are the
// engine's own.
func refQuery(e *Engine, p []byte, tau float64, st *QueryStats) []Hit {
	lo, hi, ok, _ := e.tx.RangeCount(p)
	if !ok {
		return nil
	}
	m := len(p)
	if m > e.levels {
		km := e.queryKeepMax(m, lo, hi, tau, st)
		defer km.release()
		return km.clone()
	}
	level := e.short[m-1]
	thr := prob.NewThreshold(tau)
	type span struct{ l, r int }
	stack := []span{{lo, hi}}
	var hits []Hit
	var pops int64
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.l > s.r {
			continue
		}
		pops++
		j := level.Max(s.l, s.r)
		lp := e.ci(m, j)
		if !thr.Passes(lp) {
			continue
		}
		x := e.tx.SA()[j]
		hits = append(hits, Hit{XPos: x, Orig: e.pos[x], Key: e.key[x], LogProb: lp})
		stack = append(stack, span{s.l, j - 1}, span{j + 1, s.r})
	}
	st.add(pops, pops, pops*plainCandidateBytes)
	return hits
}

func refTopK(e *Engine, p []byte, k int, st *QueryStats) []Hit {
	lo, hi, ok, _ := e.tx.RangeCount(p)
	if !ok {
		return nil
	}
	m := len(p)
	if m > e.levels {
		out, _ := e.topKLong(p, m, lo, hi, k, st)
		return out
	}
	level := e.short[m-1]
	var h refFragHeap
	var pushes int64
	push := func(l, r int) {
		if l > r {
			return
		}
		pushes++
		j := level.Max(l, r)
		if lp := e.ci(m, j); lp != prob.LogZero {
			heap.Push(&h, fragment{l, r, j, lp})
		}
	}
	push(lo, hi)
	var out []Hit
	for h.Len() > 0 {
		if len(out) >= k && h[0].lp != out[k-1].LogProb {
			break
		}
		f := heap.Pop(&h).(fragment)
		x := e.tx.SA()[f.j]
		out = append(out, Hit{XPos: x, Orig: e.pos[x], Key: e.key[x], LogProb: f.lp})
		push(f.l, f.j-1)
		push(f.j+1, f.r)
	}
	st.add(pushes, pushes, pushes*plainCandidateBytes)
	sortHitsByProb(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func refCount(e *Engine, p []byte, tau float64, st *QueryStats) int {
	lo, hi, ok, _ := e.tx.RangeCount(p)
	if !ok {
		return 0
	}
	m := len(p)
	if m > e.levels {
		km := e.queryKeepMax(m, lo, hi, tau, st)
		defer km.release()
		return len(km.hits)
	}
	level := e.short[m-1]
	thr := prob.NewThreshold(tau)
	var h refFragHeap
	var pushes int64
	push := func(l, r int) {
		if l > r {
			return
		}
		pushes++
		j := level.Max(l, r)
		if lp := e.ci(m, j); thr.Passes(lp) {
			heap.Push(&h, fragment{l, r, j, lp})
		}
	}
	push(lo, hi)
	n := 0
	for h.Len() > 0 {
		f := heap.Pop(&h).(fragment)
		n++
		push(f.l, f.j-1)
		push(f.j+1, f.r)
	}
	st.add(pushes, pushes, pushes*plainCandidateBytes)
	return n
}

// refFragHeap is fragHeap as a container/heap.Interface, the way the
// reference paths used it.
type refFragHeap []fragment

func (h refFragHeap) Len() int           { return len(h) }
func (h refFragHeap) Less(a, b int) bool { return h[a].lp > h[b].lp }
func (h refFragHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *refFragHeap) Push(x any)        { *h = append(*h, x.(fragment)) }
func (h *refFragHeap) Pop() any          { old := *h; n := len(old); f := old[n-1]; *h = old[:n-1]; return f }

// checkPlainAgainstRef runs search and count at tau, and top-k when topK is
// set, on e against the reference paths: hits, counts and Candidates must
// be identical (suffix steps and index bytes also charge the range search,
// which the bucket directory made cheaper).
func checkPlainAgainstRef(t *testing.T, e *Engine, p []byte, tau float64, topK bool) {
	t.Helper()
	var wantSt, gotSt QueryStats
	want := refQuery(e, p, tau, &wantSt)
	got, err := e.QueryCosted(p, tau, &gotSt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotSt.Candidates != wantSt.Candidates {
		t.Fatalf("Query(%q, %v): got %v %+v, reference %v %+v", p, tau, got, gotSt, want, wantSt)
	}
	wantSt, gotSt = QueryStats{}, QueryStats{}
	wantN := refCount(e, p, tau, &wantSt)
	if n, _ := e.CountCosted(p, tau, &gotSt); n != wantN || n != len(want) || gotSt.Candidates != wantSt.Candidates {
		t.Fatalf("Count(%q, %v) = %d %+v, reference %d %+v", p, tau, n, gotSt, wantN, wantSt)
	}
	if !topK {
		return
	}
	for _, k := range []int{1, 10, len(want) + 1} {
		wantSt, gotSt = QueryStats{}, QueryStats{}
		wantTop := refTopK(e, p, k, &wantSt)
		top, err := e.TopKCosted(p, k, &gotSt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(top, wantTop) || gotSt.Candidates != wantSt.Candidates {
			t.Fatalf("TopK(%q, %d): got %v %+v, reference %v %+v", p, k, top, gotSt, wantTop, wantSt)
		}
	}
}

// plainCorpus builds the plain indexes of the benchmark's 128-document
// corpus: 1 200 positions each, every sixteenth document correlated.
func plainCorpus(t testing.TB) ([]*ustring.String, []*Index) {
	t.Helper()
	docs := make([]*ustring.String, 128)
	ixs := make([]*Index, len(docs))
	for i := range docs {
		cfg := gen.Config{N: 1200, Theta: 0.3, Seed: 1<<20 + int64(i)}
		if i%16 == 15 {
			cfg.Correlations = 25
		}
		docs[i] = gen.Single(cfg)
		ix, err := Build(docs[i], 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ixs[i] = ix
	}
	return docs, ixs
}

// TestPlainExtractionMatchesReference holds the shortMax extraction to the
// per-pop rmq.Block path over the 128-document corpus, at every pool
// pattern length and threshold, for search, top-k and count (top-k takes
// no threshold, so it runs once per pattern).
func TestPlainExtractionMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-sized reference comparison")
	}
	docs, ixs := plainCorpus(t)
	taus := []float64{0.10, 0.12, 0.2, 0.4, 0.7}
	for _, m := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24} {
		pats := gen.CollectionPatterns(docs, 2, m, int64(1+m))
		pats = append(pats, bytes.Repeat([]byte{'Z'}, m)) // outside the alphabet: a miss
		for _, p := range pats {
			for ti, tau := range taus {
				for _, ix := range ixs {
					checkPlainAgainstRef(t, ix.Engine(), p, tau, ti == 0)
				}
			}
		}
	}
}

// TestPlainQueryAllocs pins the plain short-pattern path's allocations: the
// scored range, the extraction stack and the top-k heap start on the
// query's stack, so a miss or a count allocates nothing and a reporting
// query allocates its result.
func TestPlainQueryAllocs(t *testing.T) {
	s := gen.Single(gen.Config{N: 1200, Theta: 0.3, Seed: 71})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var short []byte // the m = 3 pattern with the most hits among a few
	most := -1
	for _, p := range gen.Patterns(s, 16, 3, 73) {
		if n, _ := ix.SearchCount(p, 0.12); n > most {
			short, most = p, n
		}
	}
	if most < 2 {
		t.Fatalf("m = 3 pattern %q has only %d hits; want a few", short, most)
	}
	miss := []byte("WYWY")
	if n, _ := ix.SearchCount(miss, 0.1); n != 0 {
		t.Fatalf("pattern %q was meant to miss, has %d hits", miss, n)
	}
	for _, c := range []struct {
		name string
		run  func()
		max  float64
	}{
		// A reporting query allocates only its growing result slice.
		{"search hit", func() { _, _ = ix.SearchHits(short, 0.12) }, 2},
		{"search miss", func() { _, _ = ix.SearchHits(miss, 0.1) }, 0},
		{"count hit", func() { _, _ = ix.SearchCount(short, 0.12) }, 0},
		{"top-k hit", func() { _, _ = ix.SearchTopK(short, 5) }, 2},
	} {
		if a := testing.AllocsPerRun(200, c.run); a > c.max {
			t.Errorf("%s: %.2f allocations per call, want ≤ %v", c.name, a, c.max)
		}
	}
}
