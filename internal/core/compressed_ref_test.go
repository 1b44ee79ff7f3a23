package core

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/mapped"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// refRangeCount, refWindowLogProb and refBestPerKey are the compressed
// query kernel as it stood before the one-pass scan — backward search with
// a wavelet descent on every step, then a stable sort of every candidate
// hit and keep-max per key, with three position-map ranks and one math.Log
// per row — kept as the reference the current kernel must reproduce hit for
// hit and counter for counter.
func refRangeCount(ix *fm.Index, p []byte) (lo, hi int, ok bool, steps int) {
	n := ix.Len()
	counts := ix.Counts()
	// Row interval [l, r) over the n+1 rows.
	l, r := 0, n+1
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == 0xFF {
			return 0, -1, false, steps
		}
		c := p[i] + 1
		base := int(counts[c])
		steps++
		rl, rr := ix.BWT().Rank2(c, l, r)
		l, r = base+rl, base+rr
		l, r = max(l, 0), min(r, n+1)
		if l >= r {
			return 0, -1, false, steps
		}
	}
	return l - 1, r - 2, true, steps
}

func refWindowLogProb(cx *CompressedIndex, x, m int) float64 {
	if x < 0 || x+m >= len(cx.sums) || cx.fmap.Run(x+m) != cx.fmap.Run(x) {
		return prob.LogZero
	}
	lp := cx.sums[x+m] - cx.sums[x]
	if cx.t != nil {
		lp += corrAdjust(cx.src, cx.t, cx.logp, cx.fmap.Pos(x), x, m)
	}
	return lp
}

func refBestPerKey(cx *CompressedIndex, p []byte, tau float64, st *QueryStats) []Hit {
	lo, hi, ok, steps := refRangeCount(cx.fm, p)
	if !ok {
		st.add(0, int64(steps), int64(steps)*fmStepBytes)
		return nil
	}
	m := len(p)
	var hops int64
	hits := make([]Hit, 0, hi-lo+1) // every window above tau, in suffix-array order
	for j := lo; j <= hi; j++ {
		x, h := cx.fm.LocateCount(j)
		hops += int64(h)
		lp := refWindowLogProb(cx, int(x), m)
		if !prob.Greater(lp, tau) {
			continue
		}
		k := cx.fmap.Pos(int(x))
		if k < 0 || k >= cx.srcLen {
			continue // only reachable over corrupt (unverified mapped) data
		}
		hits = append(hits, Hit{XPos: x, Orig: int32(k), Key: int32(k), LogProb: lp})
	}
	scanned := int64(hi - lo + 1)
	st.add(scanned, int64(steps)+hops,
		int64(steps)*fmStepBytes+hops*fmHopBytes+scanned*fmCandidateBytes)
	// The stable sort keeps suffix-array order within a key, so replacing
	// only on a strictly greater probability leaves ties with the first.
	slices.SortStableFunc(hits, func(a, b Hit) int { return cmp.Compare(a.Key, b.Key) })
	out := hits[:0]
	for _, h := range hits {
		if n := len(out); n > 0 && out[n-1].Key == h.Key {
			if h.LogProb > out[n-1].LogProb {
				out[n-1] = h
			}
			continue
		}
		out = append(out, h)
	}
	if len(out) == 0 {
		return nil // like the plain backend, not an empty slice
	}
	return out
}

// checkAgainstRef runs every query operation of cx against the reference
// kernel: hits after the canonical sort, top-k, counts, positions and the
// cost counters must all be identical.
func checkAgainstRef(t *testing.T, cx *CompressedIndex, p []byte, tau float64) {
	t.Helper()
	var wantSt, gotSt QueryStats
	want := refBestPerKey(cx, p, tau, &wantSt)
	sortHitsByProb(want)
	got, err := cx.SearchHitsCosted(p, tau, &gotSt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotSt != wantSt {
		t.Fatalf("SearchHits(%q, %v): got %v %+v, reference %v %+v", p, tau, got, gotSt, want, wantSt)
	}
	gotSt = QueryStats{}
	if n, _ := cx.SearchCountCosted(p, tau, &gotSt); n != len(want) || gotSt != wantSt {
		t.Fatalf("SearchCount(%q, %v) = %d %+v, reference %d %+v", p, tau, n, gotSt, len(want), wantSt)
	}
	var wantPos []int
	for _, h := range want {
		wantPos = append(wantPos, int(h.Orig))
	}
	slices.Sort(wantPos)
	if pos, _ := cx.Search(p, tau); !reflect.DeepEqual(pos, wantPos) {
		t.Fatalf("Search(%q, %v) = %v, reference %v", p, tau, pos, wantPos)
	}
	wantSt = QueryStats{}
	all := refBestPerKey(cx, p, 0, &wantSt)
	sortHitsByProb(all)
	for _, k := range []int{1, 10, len(all) + 1} {
		gotSt = QueryStats{}
		top, err := cx.SearchTopKCosted(p, k, &gotSt)
		if err != nil {
			t.Fatal(err)
		}
		wantTop := all[:min(k, len(all))]
		if len(wantTop) == 0 {
			wantTop = nil
		}
		if !reflect.DeepEqual(top, wantTop) || gotSt != wantSt {
			t.Fatalf("SearchTopK(%q, %d): got %v %+v, reference %v %+v", p, k, top, gotSt, wantTop, wantSt)
		}
	}
}

// TestCompressedKernelMatchesReference holds the one-pass kernel to the
// kept reference over a serving-sized corpus: 128 documents of 1 200
// positions (the benchmark's generator parameters), every pool pattern
// length and threshold, a correlated document set, and envelope-opened
// copies of some documents (the mapped layout the daemon serves).
func TestCompressedKernelMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-sized reference comparison")
	}
	const tauMin = 0.1
	docs := make([]*ustring.String, 128)
	for i := range docs {
		cfg := gen.Config{N: 1200, Theta: 0.3, Seed: 1<<20 + int64(i)}
		if i%16 == 15 {
			cfg.Correlations = 25
		}
		docs[i] = gen.Single(cfg)
	}
	ixs := make([]*CompressedIndex, 0, len(docs)+4)
	for _, d := range docs {
		cx, err := BuildCompressed(d, tauMin)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, cx)
	}
	for _, i := range []int{0, 15, 31} {
		var buf bytes.Buffer
		if _, err := ixs[i].WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		e, err := mapped.Open(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		b, err := backendFromEnvelope(e, false)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, b.(*CompressedIndex))
	}
	taus := []float64{0.10, 0.12, 0.2, 0.4, 0.7}
	for _, m := range []int{2, 3, 4, 6, 8, 12, 16, 24} {
		pats := gen.CollectionPatterns(docs, 3, m, int64(1+m))
		pats = append(pats, bytes.Repeat([]byte{'Z'}, m)) // outside the alphabet: a miss
		for pi, p := range pats {
			tau := taus[pi%len(taus)]
			for _, cx := range ixs {
				checkAgainstRef(t, cx, p, tau)
			}
		}
	}
	// Every threshold on the widest ranges, where ties and dedup are densest.
	for _, p := range gen.CollectionPatterns(docs, 2, 2, 3) {
		for _, tau := range taus {
			for _, cx := range ixs {
				checkAgainstRef(t, cx, p, tau)
			}
		}
	}
}

// TestCompressedQueryAllocs pins the kernel's allocations: the keep-max
// table is pooled, so a short-pattern SearchHits allocates its result and
// little else, and a miss allocates nothing.
func TestCompressedQueryAllocs(t *testing.T) {
	s := gen.Single(gen.Config{N: 1200, Theta: 0.3, Seed: 71})
	cx, err := BuildCompressed(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var short []byte // the m = 2 pattern with the most hits among a few
	most := -1
	for _, p := range gen.Patterns(s, 16, 2, 73) {
		if n, _ := cx.SearchCount(p, 0.12); n > most {
			short, most = p, n
		}
	}
	if most < 10 {
		t.Fatalf("m = 2 pattern %q has only %d hits; want a wide range", short, most)
	}
	miss := bytes.Repeat([]byte("WY"), 6)
	if n, _ := cx.SearchCount(miss, 0.1); n != 0 {
		t.Fatalf("pattern %q was meant to miss, has %d hits", miss, n)
	}
	if a := testing.AllocsPerRun(200, func() { _, _ = cx.SearchHits(short, 0.12) }); a > 2 {
		t.Errorf("m = 2 SearchHits: %.2f allocations per call, want ≤ 2", a)
	}
	if a := testing.AllocsPerRun(200, func() { _, _ = cx.SearchHits(miss, 0.1) }); a != 0 {
		t.Errorf("m = 12 miss: %.2f allocations per call, want 0", a)
	}
}
