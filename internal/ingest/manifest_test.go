package ingest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ustring"
)

// TestIndexCacheRemap proves the restart fast path: a fold writes each live
// document's index file under <name>.ix/, and the next Open re-maps them
// (mmap'd, no rebuild) while rebuilding only what the WAL mutated afterwards
// — answering bit-identically to a static catalog over the same final
// document set. The files also survive a restart that spells the
// long-pattern cap differently: 0 (the default) and core.DefaultLongCap
// build identical indexes.
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
	if files := listIx(t, dir, "coll"); len(files) != compacted {
		t.Fatalf("the fold wrote index files %v, want %d", files, compacted)
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
		// Every folded document re-maps; replay then displaces the replaced
		// and deleted ones.
		if got := status(t, st2, "coll").RemappedDocs; got != compacted {
			st2.Close()
			t.Fatalf("longcap %d: RemappedDocs = %d, want %d", longCap, got, compacted)
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

// TestTruncatedIndexFileFailsOpen: a folded document exists on disk only as
// its index file, so a damaged file must fail Open with an error naming it
// rather than silently serving the collection without that document.
func TestTruncatedIndexFileFailsOpen(t *testing.T) {
	docs := testDocs(t, 1500, 59)
	for _, mmap := range []bool{false, true} {
		dir := t.TempDir()
		opts := testOptions(t, dir, -1)
		opts.Catalog.Backend = core.BackendCompressed
		opts.Catalog.MMap = mmap
		st, err := Open(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := st.Put("coll", fmt.Sprintf("doc-%02d", i), docs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Compact("coll"); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		victim := filepath.Join(dir, "coll.ix", listIx(t, dir, "coll")[2])
		fi, err := os.Stat(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(victim, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(nil, opts); err == nil || !strings.Contains(err.Error(), victim) {
			t.Fatalf("mmap %v: Open over a truncated index file: err = %v, want an error naming %s", mmap, err, victim)
		}
	}
}

// TestFoldWritesDelta: a fold writes index files only for documents without
// one and never rewrites a file in place — a mapped View may be reading it.
// After one replacing Put, the next fold adds exactly one file, removes
// exactly one, and leaves every other file's inode and mtime alone.
func TestFoldWritesDelta(t *testing.T) {
	docs := testDocs(t, 2000, 61)
	dir := t.TempDir()
	opts := testOptions(t, dir, -1)
	opts.Catalog.MMap = true
	st, err := Open(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	byID := make(map[string]*ustring.String)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("d%d", i)
		if _, err := st.Put("c", id, docs[i]); err != nil {
			t.Fatal(err)
		}
		byID[id] = docs[i]
	}
	if _, err := st.Compact("c"); err != nil {
		t.Fatal(err)
	}
	stat := func() map[string]fs.FileInfo {
		out := make(map[string]fs.FileInfo)
		for _, name := range listIx(t, dir, "c") {
			fi, err := os.Stat(filepath.Join(dir, "c.ix", name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = fi
		}
		return out
	}
	before := stat()
	if _, err := st.Put("c", "d3", docs[7]); err != nil {
		t.Fatal(err)
	}
	byID["d3"] = docs[7]
	if _, err := st.Compact("c"); err != nil {
		t.Fatal(err)
	}
	after := stat()
	var added, removed []string
	for name, fi := range after {
		old, ok := before[name]
		switch {
		case !ok:
			added = append(added, name)
		case !os.SameFile(old, fi) || !old.ModTime().Equal(fi.ModTime()) || old.Size() != fi.Size():
			t.Fatalf("the fold rewrote %s", name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			removed = append(removed, name)
		}
	}
	if len(added) != 1 || len(removed) != 1 {
		t.Fatalf("the fold added %v and removed %v, want one each", added, removed)
	}
	v, _ := st.Get("c")
	assertEquivalent(t, v, byID)
}

// TestRestoreFromDocumentedFiles: OPERATIONS.md tells operators that a
// collection's state is <name>.wal, <name>.manifest and <name>.ix/. A
// primary restored from exactly those files keeps its epoch, so its
// follower's next poll does not fence it.
func TestRestoreFromDocumentedFiles(t *testing.T) {
	docs := testDocs(t, 1500, 67)
	dir := t.TempDir()
	st, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := st.Put("coll", fmt.Sprintf("r%d", round), docs[round]); err != nil {
			t.Fatal(err)
		}
		if did, err := st.Compact("coll"); err != nil || !did {
			t.Fatalf("Compact = %v, %v", did, err)
		}
	}
	// Each fold's manifest carries the bumped epoch.
	if pos, err := st.WALPos("coll"); err != nil || pos.Epoch != 2 {
		t.Fatalf("after two folds WALPos = %+v, %v; want epoch 2", pos, err)
	}
	epoch, err := st.Takeover("coll", 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	restored := t.TempDir()
	for _, name := range []string{"coll.wal", "coll.manifest", "coll.ix"} {
		copyTree(t, filepath.Join(dir, name), filepath.Join(restored, name))
	}
	st2, err := Open(nil, testOptions(t, restored, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if pos, err := st2.WALPos("coll"); err != nil || pos.Epoch != epoch {
		t.Fatalf("restored WALPos = %+v, %v; want epoch %d", pos, err, epoch)
	}
	if st2.FenceIfStale("coll", epoch) {
		t.Fatal("the restored primary fenced itself at its own epoch")
	}
}

// TestOpenLegacyLayout converts a collection written by the layout before
// manifests — a compressed collection with a gob .ckpt, an .ixc/ index
// cache, .backend and .wal.epoch sidecars at epoch 2, and two WAL records
// after its last fold — and checks it answers like the acked-write model,
// keeps its epoch, leaves no old file behind, and is not converted twice.
func TestOpenLegacyLayout(t *testing.T) {
	docs := testDocs(t, 800, 301)
	// The fixture's history: put l0..l4, fold; put l5, delete l1, fold;
	// replace l2 with docs[6], delete l3.
	byID := map[string]*ustring.String{"l0": docs[0], "l2": docs[6], "l4": docs[4], "l5": docs[5]}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy_pr30"), dir)
	open := func() *Store {
		t.Helper()
		st, err := Open(nil, testOptions(t, dir, -1))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	check := func(st *Store) {
		t.Helper()
		v, ok := st.Get("coll")
		if !ok || v.Backend() != core.BackendCompressed {
			t.Fatalf("converted collection: ok=%v backend=%v", ok, v)
		}
		assertEquivalent(t, v, byID)
		if pos, err := st.WALPos("coll"); err != nil || pos.Epoch != 2 || pos.Records != 2 {
			t.Fatalf("WALPos = %+v, %v; want epoch 2 with 2 records", pos, err)
		}
		if got := status(t, st, "coll").RemappedDocs; got != 5 {
			t.Fatalf("RemappedDocs = %d, want the checkpoint's 5", got)
		}
	}
	st := open()
	check(st)
	for _, old := range []string{"coll.ckpt", "coll.backend", "coll.wal.epoch", "coll.ixc"} {
		if _, err := os.Stat(filepath.Join(dir, old)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the conversion: %v", old, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Open must not enter the legacy reader: an unreadable
	// checkpoint and a different epoch sidecar planted now are ignored.
	for name, body := range map[string]string{"coll.ckpt": "garbage", "coll.wal.epoch": "99"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st = open()
	defer st.Close()
	check(st)
}

// FuzzReadManifest: arbitrary bytes decode, through the catalog's shared
// reader and validator, to an error or to a manifest that passed
// validation — never a panic.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"spec":"compressed","tau_min":0.1,"long_cap":0,"epoch":2,"next":3,"folded":true,` +
		`"docs":[{"id":"a","file":0},{"id":"b","file":2}]}`))
	f.Add([]byte(`{"spec":"approx 0.05","tau_min":0.2,"epoch":1,"next":0,"folded":false,"docs":null}`))
	f.Add([]byte(`{"spec":"plain","tau_min":0.1,"next":1,"docs":[{"id":"a","file":0},{"id":"a","file":0}]}`))
	f.Add([]byte(`{"spec":"plain","tau_min":0.1,"next":99999999999,"docs":[{"id":"","file":5}]}`))
	path := filepath.Join(f.TempDir(), "c.manifest")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var m manifest
		spec, err := catalog.ReadManifest(path, &m)
		if err != nil {
			return
		}
		if got, derr := core.DecodeBackendSpec(m.Spec); derr != nil || got != spec {
			t.Fatalf("accepted spec %q decodes to %v, %v", m.Spec, got, derr)
		}
		for i, d := range m.Docs {
			if validateDocID(d.ID) != nil || d.File >= m.Next || i > 0 && d.ID <= m.Docs[i-1].ID {
				t.Fatalf("accepted an invalid entry %d: %+v (next %d)", i, d, m.Next)
			}
		}
	})
}

// listIx returns the sorted file names under <name>.ix/.
func listIx(t *testing.T, dir, name string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, name+".ix"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

// status returns one collection's status.
func status(t *testing.T, st *Store, name string) CollectionStatus {
	t.Helper()
	for _, cs := range st.Status() {
		if cs.Name == name {
			return cs
		}
	}
	t.Fatalf("no status for %q", name)
	return CollectionStatus{}
}

// copyTree copies a file or a directory tree from src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
