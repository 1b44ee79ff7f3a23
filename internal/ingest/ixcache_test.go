package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ustring"
)

// TestIndexCacheRemap proves the restart fast path: a compaction writes the
// index cache next to the checkpoint, and the next Open re-maps the
// compacted documents (mmap'd, no rebuild) while rebuilding only what the
// WAL mutated afterwards — answering bit-identically to a static catalog
// over the same final document set. The cache also survives a restart that
// spells the long-pattern cap differently: 0 (the default) and
// core.DefaultLongCap build identical indexes.
func TestIndexCacheRemap(t *testing.T) {
	docs := testDocs(t, 2500, 53)
	dir := t.TempDir()
	opts := testOptions(t, dir, -1)
	opts.Catalog.Backend = core.BackendCompressed
	opts.Catalog.MMap = true

	st, err := Open(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*ustring.String)
	put := func(id string, doc *ustring.String) {
		t.Helper()
		if _, err := st.Put("coll", id, doc); err != nil {
			t.Fatal(err)
		}
		byID[id] = doc
	}
	compacted := 6
	for i := 0; i < compacted; i++ {
		put(fmt.Sprintf("base-%02d", i), docs[i%len(docs)])
	}
	if did, err := st.Compact("coll"); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "coll.ixc", ixManifestName)); err != nil {
		t.Fatalf("compaction did not install the index cache: %v", err)
	}
	// Mutations after the compaction: one replacement, one delete, one new
	// document — all only in the WAL, so the restart must rebuild exactly
	// these on top of the re-mapped base.
	put("base-01", docs[(compacted+1)%len(docs)])
	put("extra-00", docs[(compacted+2)%len(docs)])
	if ok, err := st.Delete("coll", "base-03"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	delete(byID, "base-03")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, longCap := range []int{0, core.DefaultLongCap} {
		opts.Catalog.LongCap = longCap
		st2, err := Open(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		var status CollectionStatus
		for _, cs := range st2.Status() {
			if cs.Name == "coll" {
				status = cs
			}
		}
		// Every checkpointed document re-maps; replay then displaces the
		// replaced and deleted ones.
		if status.RemappedDocs != compacted {
			st2.Close()
			t.Fatalf("longcap %d: RemappedDocs = %d, want %d", longCap, status.RemappedDocs, compacted)
		}
		v, ok := st2.Get("coll")
		if !ok {
			st2.Close()
			t.Fatal("collection missing after restart")
		}
		assertEquivalent(t, v, byID)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexCacheFallback proves the cache is strictly optional: with its
// manifest corrupted, Open rebuilds from the checkpoint as before — no
// error, no re-map, identical answers.
func TestIndexCacheFallback(t *testing.T) {
	docs := testDocs(t, 1500, 59)
	dir := t.TempDir()
	opts := testOptions(t, dir, -1)
	opts.Catalog.Backend = core.BackendCompressed
	opts.Catalog.MMap = true

	st, err := Open(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*ustring.String)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		if _, err := st.Put("coll", id, docs[i]); err != nil {
			t.Fatal(err)
		}
		byID[id] = docs[i]
	}
	if _, err := st.Compact("coll"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "coll.ixc", ixManifestName)
	if err := os.WriteFile(manifest, []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(nil, opts)
	if err != nil {
		t.Fatalf("Open must survive a corrupt index cache: %v", err)
	}
	defer st2.Close()
	for _, cs := range st2.Status() {
		if cs.Name == "coll" && cs.RemappedDocs != 0 {
			t.Fatalf("RemappedDocs = %d with a corrupt cache, want 0", cs.RemappedDocs)
		}
	}
	v, ok := st2.Get("coll")
	if !ok {
		t.Fatal("collection missing after restart")
	}
	assertEquivalent(t, v, byID)
}
