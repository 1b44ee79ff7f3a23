package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mapped"
	"repro/internal/ustring"
)

func testDocs(t *testing.T, n int, seed int64) []*ustring.String {
	t.Helper()
	docs := gen.Collection(gen.Config{N: n, Theta: 0.3, Seed: seed})
	if len(docs) < 2 {
		t.Fatalf("generator produced %d documents, want several", len(docs))
	}
	return docs
}

func testCatalog(t *testing.T, docs []*ustring.String, shards int) *Collection {
	t.Helper()
	c := New(Options{TauMin: 0.1, Shards: shards})
	col, err := c.Add("coll", docs)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestCatalogBuildAndStats(t *testing.T) {
	docs := testDocs(t, 600, 7)
	c := New(Options{TauMin: 0.1, Shards: 4, Workers: 2})
	if _, err := c.Add("alpha", docs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("beta", docs[:2]); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Names(), []string{"alpha", "beta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	col, ok := c.Get("alpha")
	if !ok {
		t.Fatal("Get(alpha) not found")
	}
	if col.Docs() != len(docs) {
		t.Fatalf("Docs() = %d, want %d", col.Docs(), len(docs))
	}
	total := 0
	for _, d := range docs {
		total += d.Len()
	}
	if col.Positions() != total {
		t.Fatalf("Positions() = %d, want %d", col.Positions(), total)
	}
	if col.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", col.Shards())
	}
	infos := c.Stats()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("Stats() = %+v", infos)
	}
	if infos[0].Docs != len(docs) || infos[0].Positions != total || infos[0].TauMin != 0.1 {
		t.Fatalf("Stats()[0] = %+v", infos[0])
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get(nope) found a collection")
	}
}

func TestOpenDirectory(t *testing.T) {
	docs := testDocs(t, 400, 11)
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "proteins.ustr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ustring.MarshalCollection(f, docs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Hidden files and subdirectories must be skipped.
	if err := os.WriteFile(filepath.Join(dir, ".hidden"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{TauMin: 0.1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Names(), []string{"proteins"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	col, _ := c.Get("proteins")
	pats := gen.CollectionPatterns(docs, 5, 4, 13)
	for _, p := range pats {
		if _, err := col.Search(p, 0.15); err != nil {
			t.Fatalf("Search(%q): %v", p, err)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	col := testCatalog(t, testDocs(t, 300, 17), 2)
	// One validation for every operation and every collection shape: the
	// same malformed query is rejected the same way whether backends would
	// run or not — a collection without documents once answered (nil, nil)
	// because only backends validated.
	empty, err := New(Options{TauMin: 0.1}).Add("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    core.Query
		want error
	}{
		{core.Query{Op: core.OpSearch, Tau: 0.2}, core.ErrEmptyPattern},
		{core.Query{Op: core.OpCount, Pattern: []byte{}, Tau: 0.2}, core.ErrEmptyPattern},
		{core.Query{Op: core.OpTopK, K: 0}, core.ErrEmptyPattern},
		{core.Query{Op: core.OpTopK, Pattern: []byte{'A', 0}, K: 3}, core.ErrBadPattern},
		{core.Query{Op: core.OpSearch, Pattern: []byte{0}, Tau: 0.2}, core.ErrBadPattern},
		{core.Query{Op: core.OpSearch, Pattern: []byte("AC"), Tau: 1.5}, core.ErrTauOutOfRange},
		{core.Query{Op: core.OpCount, Pattern: []byte("AC"), Tau: 0.01}, core.ErrTauBelowTauMin},
	} {
		for name, run := range map[string]func() (Result, error){
			"populated": func() (Result, error) { return col.Exec(tc.q, ExecOpts{}) },
			"empty":     func() (Result, error) { return empty.Exec(tc.q, ExecOpts{}) },
		} {
			if res, err := run(); !errors.Is(err, tc.want) || res.Hits != nil || res.Count != 0 {
				t.Errorf("%s collection: Exec(%+v) = %v, %v; want %v", name, tc.q, res, err, tc.want)
			}
		}
	}
	// The wrappers inherit it.
	if _, err := col.TopK(nil, 0); !errors.Is(err, core.ErrEmptyPattern) {
		t.Fatalf("TopK(empty, k=0) err = %v, want ErrEmptyPattern", err)
	}
	if _, err := empty.Search(nil, 0.5); !errors.Is(err, core.ErrEmptyPattern) {
		t.Fatalf("empty collection Search(empty) err = %v, want ErrEmptyPattern", err)
	}
	if _, err := empty.Search([]byte("A"), 0.01); !errors.Is(err, core.ErrTauBelowTauMin) {
		t.Fatalf("empty collection Search(tau<taumin) err = %v, want ErrTauBelowTauMin", err)
	}
	if hits, err := col.Search([]byte("AC"), 0.2); err != nil {
		t.Fatalf("Search(valid) = %v, %v", hits, err)
	}
	if hits, err := col.TopK([]byte("AC"), 0); err != nil || hits != nil {
		t.Fatalf("TopK(k=0) = %v, %v; want nil, nil", hits, err)
	}
	c := New(Options{})
	if _, err := c.Add("", nil); err == nil {
		t.Fatal("Add(\"\") succeeded, want error")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	docs := testDocs(t, 500, 23)
	c := New(Options{TauMin: 0.1, Shards: 3})
	if _, err := c.Add("saved", docs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, Options{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := c.Get("saved")
	got, ok := loaded.Get("saved")
	if !ok {
		t.Fatal("loaded catalog is missing the collection")
	}
	if got.TauMin() != orig.TauMin() || got.Docs() != orig.Docs() || got.Positions() != orig.Positions() {
		t.Fatalf("loaded collection %+v differs from original", got)
	}
	if got.Shards() != 5 {
		t.Fatalf("loaded Shards() = %d, want 5 (from load options)", got.Shards())
	}
	for _, m := range []int{3, 6} {
		for _, p := range gen.CollectionPatterns(docs, 8, m, 29) {
			a, err := orig.Search(p, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Search(p, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("loaded catalog disagrees on %q: %v vs %v", p, a, b)
			}
		}
	}
}

func TestOpenRejectsDuplicateNames(t *testing.T) {
	docs := testDocs(t, 200, 19)
	dir := t.TempDir()
	for _, name := range []string{"genes.txt", "genes.dat"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := ustring.MarshalCollection(f, docs); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with colliding base names succeeded, want error")
	}
}

func TestSavePrunesStaleCache(t *testing.T) {
	docs := testDocs(t, 400, 27)
	dir := t.TempDir()
	c := New(Options{TauMin: 0.1, Shards: 2})
	if _, err := c.Add("keep", docs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("drop", docs[:3]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	// An unrelated directory must survive pruning; a directory of the layout
	// before manifests goes, recognised by its manifest.gob name alone.
	for _, sub := range []string{"unrelated", "old"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "old", "manifest.gob"), []byte("not decoded"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A second catalog without "drop" and with a smaller "keep" must prune
	// both the stale collection and the superseded document files.
	c2 := New(Options{TauMin: 0.1, Shards: 2})
	if _, err := c2.Add("keep", docs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := c2.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{ManifestPath(dir, "drop"), IxDir(dir, "drop"), filepath.Join(dir, "old")} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("stale cache entry %s not pruned", gone)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated")); err != nil {
		t.Fatal("unrelated directory removed by pruning")
	}
	assertIxNamed(t, dir, "keep")
	loaded, err := Load(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Names(), []string{"keep"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Load after prune = %v, want %v", got, want)
	}
	col, _ := loaded.Get("keep")
	if col.Docs() != 2 {
		t.Fatalf("pruned collection has %d docs, want 2", col.Docs())
	}
}

// assertIxNamed fails unless <name>.ix/ holds exactly the files the
// collection's manifest names.
func assertIxNamed(t *testing.T, dir, name string) {
	t.Helper()
	var m Manifest
	if _, err := ReadManifest(ManifestPath(dir, name), &m); err != nil {
		t.Fatal(err)
	}
	var named, got []string
	for _, d := range m.Docs {
		named = append(named, filepath.Base(IxPath(dir, name, d.File)))
	}
	entries, err := os.ReadDir(IxDir(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(named)
	if !reflect.DeepEqual(got, named) {
		t.Fatalf("%s.ix/ holds %v, the manifest names %v", name, got, named)
	}
}

// TestSaveNeverRewritesMappedFiles: saving a different catalog over the
// directory a mapped collection was loaded from must not change that
// collection's answers — Save writes fresh files and unlinks the old ones,
// which stay readable through their mappings.
func TestSaveNeverRewritesMappedFiles(t *testing.T) {
	docsA, docsB := testDocs(t, 800, 83), testDocs(t, 800, 89)
	opts := Options{TauMin: 0.1, Shards: 2, Backend: core.BackendCompressed}
	dir := t.TempDir()
	a := New(opts)
	if _, err := a.Add("coll", docsA); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	mopts := opts
	mopts.MMap = true
	loaded, err := Load(dir, mopts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	col, _ := loaded.Get("coll")
	want := collGrid(t, docsA, col)

	b := New(opts)
	if _, err := b.Add("coll", docsB); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(dir); err != nil {
		t.Fatal(err)
	}
	if got := collGrid(t, docsA, col); !reflect.DeepEqual(got, want) {
		t.Fatal("a Save into the directory changed a mapped collection's answers")
	}
	assertIxNamed(t, dir, "coll")
	again, err := Load(dir, mopts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	colB, _ := again.Get("coll")
	baseB, _ := b.Get("coll")
	if !reflect.DeepEqual(collGrid(t, docsB, colB), collGrid(t, docsB, baseB)) {
		t.Fatal("the directory does not serve the catalog saved last")
	}
}

// TestSaveCrashWindow stages a Save that crashed after writing its index
// files and before renaming its manifest: Load serves the previous cache,
// and the next Save sweeps the orphaned files.
func TestSaveCrashWindow(t *testing.T) {
	docsA, docsB := testDocs(t, 600, 97), testDocs(t, 600, 101)
	opts := Options{TauMin: 0.1, Shards: 2}
	dir := t.TempDir()
	a := New(opts)
	if _, err := a.Add("coll", docsA); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	b := New(opts)
	colB, err := b.Add("coll", docsB)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if _, err := ReadManifest(ManifestPath(dir, "coll"), &m); err != nil {
		t.Fatal(err)
	}
	for i, ix := range colB.DocIndexes() {
		if _, err := WriteSynced(IxPath(dir, "coll", m.Next+uint64(i)), ix); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(ManifestPath(dir, "coll")+".tmp", []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseA, _ := a.Get("coll")
	col, _ := loaded.Get("coll")
	if !reflect.DeepEqual(collGrid(t, docsA, col), collGrid(t, docsA, baseA)) {
		t.Fatal("after a crashed Save, Load does not serve the previous cache")
	}
	if err := b.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertIxNamed(t, dir, "coll")
	if loaded, err = Load(dir, opts); err != nil {
		t.Fatal(err)
	}
	col, _ = loaded.Get("coll")
	if !reflect.DeepEqual(collGrid(t, docsB, col), collGrid(t, docsB, colB)) {
		t.Fatal("the Save after the crash does not serve its catalog")
	}
}

// TestLoadRejectsTauMinMismatch: a manifest whose τmin disagrees with its
// files fails Load with an error naming the file.
func TestLoadRejectsTauMinMismatch(t *testing.T) {
	dir := t.TempDir()
	c := New(Options{TauMin: 0.1})
	if _, err := c.Add("coll", testDocs(t, 300, 103)); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if _, err := ReadManifest(ManifestPath(dir, "coll"), &m); err != nil {
		t.Fatal(err)
	}
	m.TauMin = 0.2
	if err := WriteManifest(ManifestPath(dir, "coll"), &m); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, Options{})
	if file := IxPath(dir, "coll", m.Docs[0].File); err == nil || !strings.Contains(err.Error(), file) {
		t.Fatalf("Load over a τmin mismatch: err = %v, want an error naming %s", err, file)
	}
}

// TestLoadFailureReleasesMappings: when one collection fails to load, the
// collections Load already mapped are closed, so the process's mapped
// footprint is back where it was.
func TestLoadFailureReleasesMappings(t *testing.T) {
	if !mapped.Available() {
		t.Skip("mmap unavailable")
	}
	docs := testDocs(t, 800, 107)
	opts := Options{TauMin: 0.1, Backend: core.BackendCompressed}
	c := New(opts)
	for _, name := range []string{"a", "b"} {
		if _, err := c.Add(name, docs); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Load reads a.manifest before b.manifest: a maps, b fails.
	var m Manifest
	if _, err := ReadManifest(ManifestPath(dir, "b"), &m); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(IxPath(dir, "b", m.Docs[len(m.Docs)-1].File), 0); err != nil {
		t.Fatal(err)
	}
	before := mapped.MappedBytes()
	opts.MMap = true
	if _, err := Load(dir, opts); err == nil {
		t.Fatal("Load over a truncated index file succeeded")
	}
	if after := mapped.MappedBytes(); after != before {
		t.Fatalf("mapped bytes %d after the failed Load, %d before: mappings leaked", after, before)
	}
}

func TestSaveRejectsUnsafeNames(t *testing.T) {
	docs := testDocs(t, 200, 33)
	for _, name := range []string{".hidden", "a/b", ".."} {
		c := New(Options{TauMin: 0.1})
		if _, err := c.Add(name, docs[:1]); err != nil {
			t.Fatal(err)
		}
		if err := c.Save(t.TempDir()); err == nil {
			t.Fatalf("Save of collection %q succeeded; Load would silently drop it", name)
		}
	}
}

func TestPersistKeepsLongCap(t *testing.T) {
	docs := testDocs(t, 300, 39)
	c := New(Options{TauMin: 0.1, LongCap: 7})
	if _, err := c.Add("capped", docs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	infos := loaded.Stats()
	if len(infos) != 1 || infos[0].LongCap != 7 {
		t.Fatalf("loaded LongCap = %+v, want 7", infos)
	}
}

func TestLoadRejectsBadCache(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(ManifestPath(dir, "broken"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, Options{}); err == nil {
		t.Fatal("Load of a collection with a corrupt manifest succeeded")
	}
	// Entries without a manifest — an unrelated directory, or one of the
	// layout before manifests — are not saved collections and must simply be
	// skipped, and Load leaves them in place.
	empty := t.TempDir()
	for _, sub := range []string{"junk", "old"} {
		if err := os.Mkdir(filepath.Join(empty, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	old := filepath.Join(empty, "old", "manifest.gob")
	if err := os.WriteFile(old, []byte("not decoded"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names()) != 0 {
		t.Fatalf("Load of manifest-less dirs produced collections %v", c.Names())
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("Load removed %s: %v", old, err)
	}
}
