package catalog

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestMixedBackendCatalogEquivalence: one catalog holding the same document
// set twice — once plain, once compressed — must answer the query grid
// bit-identically from both collections.
func TestMixedBackendCatalogEquivalence(t *testing.T) {
	docs := testDocs(t, 2200, 179)
	cat := New(Options{TauMin: 0.1, Shards: 3})
	plain, err := cat.Add("plain", docs)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cat.AddWithBackend("comp", docs, core.BackendCompressed)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Backend() != core.BackendPlain || comp.Backend() != core.BackendCompressed {
		t.Fatalf("backends mislabelled: %q / %q", plain.Backend(), comp.Backend())
	}
	// Plain counts only the arrays it holds (no build-only LCP or inverse
	// array, Pos once), which puts these small documents at 1.78×.
	if 17*comp.IndexBytes() > 10*plain.IndexBytes() {
		t.Fatalf("compressed collection %d bytes vs plain %d — less than 1.7× smaller",
			comp.IndexBytes(), plain.IndexBytes())
	}
	checked := 0
	for _, m := range []int{2, 3, 6} {
		for _, p := range gen.CollectionPatterns(docs, 8, m, int64(181+m)) {
			for _, tau := range []float64{0.1, 0.2} {
				want, err := plain.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				got, err := comp.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Search(%q, %v): plain %v, compressed %v", p, tau, want, got)
				}
				wantN, err := plain.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				gotN, err := comp.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("Count(%q, %v): plain %d, compressed %d", p, tau, wantN, gotN)
				}
				checked++
			}
			for _, k := range []int{1, 4, 20} {
				want, err := plain.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := comp.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TopK(%q, %d): plain %v, compressed %v", p, k, want, got)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no queries checked")
	}
}

// TestMixedBackendSaveLoad: a catalog holding collections of both backends
// survives Save/Load with backends and answers intact.
func TestMixedBackendSaveLoad(t *testing.T) {
	docs := testDocs(t, 1200, 191)
	opts := Options{TauMin: 0.1, Shards: 2}
	cat := New(opts)
	if _, err := cat.Add("p", docs); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddWithBackend("z", docs, core.BackendCompressed); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cat.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, backend := range map[string]string{"p": core.BackendPlain, "z": core.BackendCompressed} {
		orig, _ := cat.Get(name)
		got, ok := loaded.Get(name)
		if !ok {
			t.Fatalf("collection %q lost on load", name)
		}
		if got.Backend() != backend {
			t.Fatalf("collection %q loaded as %q, want %q", name, got.Backend(), backend)
		}
		for _, p := range gen.CollectionPatterns(docs, 4, 3, 193) {
			want, err := orig.Search(p, 0.12)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.Search(p, 0.12)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("collection %q: loaded Search(%q) diverges", name, p)
			}
		}
	}
}
