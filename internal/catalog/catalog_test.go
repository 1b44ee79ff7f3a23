package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
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
	// An unrelated directory without a manifest must survive pruning.
	if err := os.MkdirAll(filepath.Join(dir, "unrelated"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A second catalog without "drop" and with a smaller "keep" must prune
	// both the stale collection and the excess document files.
	c2 := New(Options{TauMin: 0.1, Shards: 2})
	if _, err := c2.Add("keep", docs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := c2.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "drop")); !os.IsNotExist(err) {
		t.Fatal("stale collection cache not pruned")
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated")); err != nil {
		t.Fatal("unrelated directory removed by pruning")
	}
	if _, err := os.Stat(filepath.Join(dir, "keep", docFileName(2))); !os.IsNotExist(err) {
		t.Fatal("stale document file not pruned")
	}
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
	if err := os.Mkdir(filepath.Join(dir, "broken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken", manifestName), []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, Options{}); err == nil {
		t.Fatal("Load of a collection with a corrupt manifest succeeded")
	}
	// A directory without a manifest is not a cached collection at all and
	// must simply be skipped.
	empty := t.TempDir()
	if err := os.Mkdir(filepath.Join(empty, "junk"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := Load(empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names()) != 0 {
		t.Fatalf("Load of manifest-less dirs produced collections %v", c.Names())
	}
}
