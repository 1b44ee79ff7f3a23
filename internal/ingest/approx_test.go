package ingest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ustring"
)

// TestIngestApproxCollection drives an approx collection through the full
// mutable lifecycle — creation by PutWithSpec, puts over replayed documents
// (delta), a delete (tombstone), compaction, restart — and
// checks the containment grid against a static plain catalog over the same
// final document set at every stage, plus the ε round-trip through the
// manifest.
func TestIngestApproxCollection(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 1800, Theta: 0.3, Seed: 269})
	if len(docs) < 8 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	const eps = 0.04
	dir := t.TempDir()
	copts := catalog.Options{TauMin: 0.1, Shards: 2}
	open := func() *Store {
		st, err := Open(nil, Options{Dir: dir, Catalog: copts, CompactThreshold: -1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	spec := core.BackendSpec{Kind: core.BackendApprox, Epsilon: eps}
	live := map[string]*ustring.String{}
	put := func(id string, doc *ustring.String, req core.BackendSpec) {
		t.Helper()
		if _, err := st.PutWithSpec("appr", id, doc, req); err != nil {
			t.Fatal(err)
		}
		live[id] = doc
	}
	put("d0", docs[0], spec) // creating put fixes the spec
	for i := 1; i < 5; i++ {
		put(fmt.Sprintf("d%d", i), docs[i], core.BackendSpec{})
	}

	v, _ := st.Get("appr")
	if v.Backend() != core.BackendApprox || v.Epsilon() != eps {
		t.Fatalf("view spec = %s", v.Spec())
	}

	// The manifest records kind and ε in the durable encoded form.
	var m manifest
	recorded, err := catalog.ReadManifest(catalog.ManifestPath(dir, "appr"), &m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec != spec.Encode() || recorded != spec {
		t.Fatalf("manifest holds %q, want %q", m.Spec, spec.Encode())
	}

	// Spec conflicts are the typed mismatch error: different kind and
	// different ε both 409-class rejections.
	if _, err := st.PutWithSpec("appr", "x", docs[5], core.BackendSpec{Kind: core.BackendPlain}); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("plain put on approx collection: %v", err)
	}
	if _, err := st.PutWithSpec("appr", "x", docs[5], core.BackendSpec{Kind: core.BackendApprox, Epsilon: 0.2}); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("different-ε put on approx collection: %v", err)
	}

	// containment asserts exact(τ) ⊆ approx(τ) ⊆ exact(τ−ε) for the current
	// live set, with the truth from a static plain catalog in id order.
	containment := func(stage string) {
		t.Helper()
		v, ok := st.Get("appr")
		if !ok {
			t.Fatalf("%s: collection missing", stage)
		}
		ordered := make([]*ustring.String, 0, len(live))
		for i := 0; i < v.Docs(); i++ {
			id, _ := v.DocID(i)
			ordered = append(ordered, live[id])
		}
		truthCat := catalog.New(copts)
		truth, err := truthCat.Add("appr", ordered)
		if err != nil {
			t.Fatal(err)
		}
		// The cost reference is the static collection of the view's own
		// spec: the view does exactly its work.
		same, err := truthCat.AddWithSpec("same", ordered, v.Spec())
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, m := range []int{2, 4} {
			for _, p := range gen.CollectionPatterns(docs, 5, m, int64(271+m)) {
				for _, tau := range []float64{0.2, 0.3} {
					got, err := v.Search(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					upper, err := truth.Search(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					lower, err := truth.Search(p, tau-eps)
					if err != nil {
						t.Fatal(err)
					}
					gotSet := make(map[[2]int]bool, len(got))
					for _, h := range got {
						gotSet[[2]int{h.Doc, h.Pos}] = true
					}
					lowerSet := make(map[[2]int]bool, len(lower))
					for _, h := range lower {
						lowerSet[[2]int{h.Doc, h.Pos}] = true
					}
					for _, h := range upper {
						if !gotSet[[2]int{h.Doc, h.Pos}] {
							t.Fatalf("%s: Search(%q, %v) missed exact hit %+v", stage, p, tau, h)
						}
					}
					for _, h := range got {
						if !lowerSet[[2]int{h.Doc, h.Pos}] {
							t.Fatalf("%s: Search(%q, %v) reported %+v below τ−ε", stage, p, tau, h)
						}
					}
					n, err := v.Count(p, tau)
					if err != nil || n != len(got) {
						t.Fatalf("%s: Count(%q, %v) = %d, %v; Search found %d", stage, p, tau, n, err, len(got))
					}
					assertExec(t, v, same, core.Query{Op: core.OpSearch, Pattern: p, Tau: tau},
						catalog.Result{Hits: got, Count: len(got)})
					assertExec(t, v, same, core.Query{Op: core.OpCount, Pattern: p, Tau: tau}, catalog.Result{Count: n})
					hits += len(got)
				}
			}
		}
		if hits == 0 {
			t.Fatalf("%s: vacuous containment check", stage)
		}
		// TopK stays a typed rejection through the view's query path.
		if _, err := v.TopK([]byte("AC"), 3); !errors.Is(err, core.ErrUnsupportedQuery) {
			t.Fatalf("%s: TopK on approx view: %v", stage, err)
		}
	}
	containment("delta only")

	// Tombstone + more delta on top of the replayed documents.
	if ok, err := st.Delete("appr", "d2"); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	delete(live, "d2")
	put("d5", docs[5], core.BackendSpec{})
	containment("delta+tombstone")

	// Compaction folds but cannot change answers.
	if _, err := st.Compact("appr"); err != nil {
		t.Fatal(err)
	}
	containment("compacted")

	// Restart: the manifest restores the spec and its index files and WAL
	// replay restore the same ε-indexes.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	defer st.Close()
	v2, ok := st.Get("appr")
	if !ok {
		t.Fatal("collection missing after restart")
	}
	if v2.Spec() != spec {
		t.Fatalf("restart lost the spec: %s", v2.Spec())
	}
	containment("restarted")
}

// TestIngestApproxDefaultSpec: a store whose catalog options default to the
// approx backend creates collections with the configured ε, and plain Puts
// pick it up without naming anything.
func TestIngestApproxDefaultSpec(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 300, Theta: 0.3, Seed: 277})
	st, err := Open(nil, Options{
		Dir:              t.TempDir(),
		Catalog:          catalog.Options{TauMin: 0.1, Backend: core.BackendApprox, Epsilon: 0.09},
		CompactThreshold: -1,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Put("c", "a", docs[0]); err != nil {
		t.Fatal(err)
	}
	v, _ := st.Get("c")
	want := core.BackendSpec{Kind: core.BackendApprox, Epsilon: 0.09}
	if v.Spec() != want {
		t.Fatalf("default spec = %s, want %s", v.Spec(), want)
	}
	// PutWithBackend naming the approx kind resolves to the store ε.
	if _, err := st.PutWithBackend("c", "b", docs[1%len(docs)], core.BackendApprox); err != nil {
		t.Fatalf("PutWithBackend(approx) against the store-default spec: %v", err)
	}
}
