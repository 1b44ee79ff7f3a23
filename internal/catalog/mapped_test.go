package catalog

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mapped"
	"repro/internal/obs"
	"repro/internal/ustring"
)

// collGrid queries a collection over a pattern/τ grid and returns every
// result, so two load paths can be compared bit-for-bit.
func collGrid(t *testing.T, docs []*ustring.String, col *Collection) []any {
	t.Helper()
	var out []any
	for _, m := range []int{2, 4, 7} {
		for _, p := range gen.CollectionPatterns(docs, 4, m, 61) {
			for _, tau := range []float64{0.1, 0.3, 0.7} {
				hits, err := col.Search(p, tau)
				if err != nil {
					t.Fatalf("Search(%q, %v): %v", p, tau, err)
				}
				n, _ := col.Count(p, tau)
				top, _ := col.TopK(p, 5)
				out = append(out, hits, n, top)
			}
		}
	}
	return out
}

// TestMMapLoadEquivalence proves the catalog's three load paths — fresh
// build, heap cache load, mmap cache load — answer the full query grid
// identically, and that the mmap path skips every decode while reporting
// its mapped footprint.
func TestMMapLoadEquivalence(t *testing.T) {
	checkLoadPaths(t, core.BackendCompressed)
}

// TestMMapLoadEquivalencePlain is TestMMapLoadEquivalence for the plain
// backend, whose files are envelopes too; every path also reports the
// built collection's index bytes.
func TestMMapLoadEquivalencePlain(t *testing.T) {
	checkLoadPaths(t, core.BackendPlain)
}

func checkLoadPaths(t *testing.T, kind string) {
	docs := testDocs(t, 800, 83)
	built := New(Options{TauMin: 0.1, Shards: 3, Backend: kind})
	if _, err := built.Add("coll", docs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	base, _ := built.Get("coll")
	want := collGrid(t, docs, base)

	t.Run("heap", func(t *testing.T) {
		c, err := Load(dir, Options{Shards: 3, Backend: kind})
		if err != nil {
			t.Fatal(err)
		}
		col, ok := c.Get("coll")
		if !ok {
			t.Fatal("loaded catalog misses the collection")
		}
		if got := collGrid(t, docs, col); !reflect.DeepEqual(got, want) {
			t.Fatal("heap cache load diverges from the built catalog")
		}
		if col.IndexBytes() != base.IndexBytes() {
			t.Fatalf("IndexBytes = %d, built collection %d", col.IndexBytes(), base.IndexBytes())
		}
		// Format-4 files skip the decode path even without mmap.
		if ms := c.MappedStats(); ms.DecodeSkips != int64(len(docs)) {
			t.Fatalf("DecodeSkips = %d, want %d", ms.DecodeSkips, len(docs))
		}
	})

	t.Run("mmap", func(t *testing.T) {
		reg := obs.NewRegistry()
		c, err := Load(dir, Options{Shards: 3, Backend: kind, MMap: true, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		col, ok := c.Get("coll")
		if !ok {
			t.Fatal("loaded catalog misses the collection")
		}
		if got := collGrid(t, docs, col); !reflect.DeepEqual(got, want) {
			t.Fatal("mmap cache load diverges from the built catalog")
		}
		if col.IndexBytes() != base.IndexBytes() {
			t.Fatalf("IndexBytes = %d, built collection %d", col.IndexBytes(), base.IndexBytes())
		}
		ms := c.MappedStats()
		if ms.DecodeSkips != int64(len(docs)) {
			t.Fatalf("DecodeSkips = %d, want %d", ms.DecodeSkips, len(docs))
		}
		if mapped.Available() {
			if ms.MappedBytes == 0 || col.MappedBytes() != ms.MappedBytes {
				t.Fatalf("MappedBytes = %d (collection %d), want equal and > 0",
					ms.MappedBytes, col.MappedBytes())
			}
		}
		infos := c.Stats()
		if len(infos) != 1 || infos[0].MappedBytes != col.MappedBytes() {
			t.Fatalf("Stats() = %+v, want one entry mirroring MappedBytes", infos)
		}
	})
}

// TestHotCollectionsEviction drives the LRU bound: loading three cached
// collections under HotCollections=2 evicts the coldest, listings still
// cover it, and its next Get faults it back in with bit-identical answers.
func TestHotCollectionsEviction(t *testing.T) {
	docsA := testDocs(t, 500, 11)
	docsB := testDocs(t, 500, 23)
	docsC := testDocs(t, 500, 37)
	built := New(Options{TauMin: 0.1, Shards: 2, Backend: core.BackendCompressed})
	for name, docs := range map[string][]*ustring.String{"aa": docsA, "bb": docsB, "cc": docsC} {
		if _, err := built.Add(name, docs); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	baseA, _ := built.Get("aa")
	wantA := collGrid(t, docsA, baseA)

	reg := obs.NewRegistry()
	c, err := Load(dir, Options{
		Shards: 2, Backend: core.BackendCompressed, MMap: true,
		HotCollections: 2, EvictGrace: 10 * time.Millisecond, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := c.MappedStats()
	if ms.ColdCollections != 1 {
		t.Fatalf("ColdCollections = %d after bounded load, want 1", ms.ColdCollections)
	}
	if got, want := c.Names(), []string{"aa", "bb", "cc"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v (cold collections must stay listed)", got, want)
	}
	cold := 0
	for _, info := range c.Stats() {
		if info.Cold {
			cold++
		}
	}
	if cold != 1 {
		t.Fatalf("Stats() reports %d cold collections, want 1", cold)
	}

	// Touch bb and cc so aa becomes (or stays) the LRU victim, then force
	// aa cold regardless of which collection the bounded load evicted.
	for _, name := range []string{"bb", "cc"} {
		if _, ok := c.Get(name); !ok {
			t.Fatalf("Get(%q) failed", name)
		}
	}
	colA, ok := c.Get("aa")
	if !ok {
		t.Fatal("Get(aa) failed — fault-in from cache did not work")
	}
	if got := collGrid(t, docsA, colA); !reflect.DeepEqual(got, wantA) {
		t.Fatal("faulted-in collection diverges from the built one")
	}
	// aa's fault-in evicted another collection; total faults so far depends
	// on which collection the initial load evicted, but at least aa's Get
	// after the touches must have faulted if aa was cold.
	if got := c.MappedStats(); got.CollectionFaults < 1 {
		t.Fatalf("CollectionFaults = %d, want ≥ 1", got.CollectionFaults)
	}
	if got := c.MappedStats(); got.ColdCollections != 1 {
		t.Fatalf("ColdCollections = %d after fault-in, want 1", got.ColdCollections)
	}

	// Wait out the grace window: queries against the still-held reference
	// completed above; the evicted backends may now be closed, and every
	// collection must still be reachable (faulting back as needed).
	time.Sleep(30 * time.Millisecond)
	for _, name := range []string{"aa", "bb", "cc"} {
		col, ok := c.Get(name)
		if !ok {
			t.Fatalf("Get(%q) failed after grace window", name)
		}
		if _, err := col.Search([]byte("ab"), 0.3); err != nil {
			t.Fatalf("query on %q after grace window: %v", name, err)
		}
	}
}

// TestSaveKeepsEvictedCollections: a Save under the HotCollections bound
// must not destroy the collection it has evicted — neither into the
// directory the collection was evicted to, where its files are its only
// copy, nor into another directory, which must receive it. Each time the
// evicted collection faults back in and answers bit-identically.
func TestSaveKeepsEvictedCollections(t *testing.T) {
	docs := map[string][]*ustring.String{
		"aa": testDocs(t, 400, 11), "bb": testDocs(t, 400, 23), "cc": testDocs(t, 400, 37),
	}
	built := New(Options{TauMin: 0.1, Shards: 2, Backend: core.BackendCompressed})
	want := map[string][]any{}
	for name, d := range docs {
		col, err := built.Add(name, d)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = collGrid(t, d, col)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	c, err := Load(dir, Options{
		Shards: 2, Backend: core.BackendCompressed, MMap: true,
		HotCollections: 2, EvictGrace: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	evicted := func() string {
		t.Helper()
		for _, info := range c.Stats() {
			if info.Cold {
				return info.Name
			}
		}
		t.Fatal("no collection is evicted")
		return ""
	}
	check := func(name string) {
		t.Helper()
		col, ok := c.Get(name)
		if !ok {
			t.Fatalf("Get(%q) cannot fault the evicted collection back in", name)
		}
		if got := collGrid(t, docs[name], col); !reflect.DeepEqual(got, want[name]) {
			t.Fatalf("evicted collection %q answers differently after Save", name)
		}
	}

	cold := evicted()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // past the grace: the old mappings are gone
	check(cold)

	cold = evicted()
	dir2 := t.TempDir()
	if err := c.Save(dir2); err != nil {
		t.Fatal(err)
	}
	check(cold)
	loaded, err := Load(dir2, Options{Shards: 2, Backend: core.BackendCompressed})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for name, d := range docs {
		col, ok := loaded.Get(name)
		if !ok {
			t.Fatalf("the copy in the new directory misses %q", name)
		}
		if got := collGrid(t, d, col); !reflect.DeepEqual(got, want[name]) {
			t.Fatalf("collection %q answers differently from the new directory", name)
		}
	}
}

// TestReplacedCollectionNotEvictedStale: a collection re-added under a name
// the cache directory already holds differs from the saved copy, so the
// HotCollections bound must not evict it — it would fault back in as the
// stale saved version.
func TestReplacedCollectionNotEvictedStale(t *testing.T) {
	c := New(Options{
		TauMin: 0.1, Shards: 2, Backend: core.BackendCompressed,
		HotCollections: 1, EvictGrace: time.Millisecond,
	})
	defer c.Close()
	if _, err := c.Add("aa", testDocs(t, 400, 11)); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	fresh := testDocs(t, 400, 29)
	col, err := c.Add("aa", fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := collGrid(t, fresh, col)
	if _, err := c.Add("bb", testDocs(t, 400, 23)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // past the grace of anything evicted
	got, ok := c.Get("aa")
	if !ok {
		t.Fatal("Get(aa) misses the collection")
	}
	if !reflect.DeepEqual(collGrid(t, fresh, got), want) {
		t.Fatal("aa answers as its stale saved copy, not as the documents it was re-added with")
	}
}
