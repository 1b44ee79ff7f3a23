package ingest

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/ustring"
)

// testCatalogOpts is the shared construction configuration: every store and
// every static reference catalog in these tests must build identically.
func testCatalogOpts() catalog.Options {
	return catalog.Options{TauMin: 0.1, Shards: 3}
}

func testOptions(t *testing.T, dir string, threshold int) Options {
	t.Helper()
	return Options{
		Dir:              dir,
		Catalog:          testCatalogOpts(),
		CompactThreshold: threshold,
		Logf:             t.Logf,
	}
}

// testDocs returns small generated documents to use as put payloads.
func testDocs(t *testing.T, n int, seed int64) []*ustring.String {
	t.Helper()
	docs := gen.Collection(gen.Config{N: n, Theta: 0.3, Seed: seed})
	if len(docs) < 8 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	return docs
}

// staticEquivalent builds the reference: a static catalog with the given
// backend spec over the same final document set, in the view's canonical
// (id-sorted) order.
func staticEquivalent(t *testing.T, byID map[string]*ustring.String, spec core.BackendSpec) (*catalog.Collection, []*ustring.String) {
	t.Helper()
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	docs := make([]*ustring.String, len(ids))
	for i, id := range ids {
		docs[i] = byID[id]
	}
	col, err := catalog.New(testCatalogOpts()).AddWithSpec("static", docs, spec)
	if err != nil {
		t.Fatal(err)
	}
	return col, docs
}

// assertExec is one Exec row of the equivalence grid: the view's Exec must
// answer q exactly as its wrapper did (want) with the trace and the cost each
// nil and set, and count exactly the five cost counters of static — a static
// collection with the view's backend spec over the same live documents — in
// every view state, pending delta and tombstones included: a view is that
// collection's shape, so it does that collection's work and nothing more.
func assertExec(t *testing.T, v *View, static *catalog.Collection, q core.Query, want catalog.Result) {
	t.Helper()
	var costs [2]obs.Cost
	for _, o := range []catalog.ExecOpts{{}, {Trace: &obs.Trace{}}, {Cost: &costs[0]}, {Trace: &obs.Trace{}, Cost: &costs[1]}} {
		got, err := v.Exec(q, o)
		if err != nil || got.Count != want.Count || !reflect.DeepEqual(got.Hits, want.Hits) && len(got.Hits)+len(want.Hits) > 0 {
			t.Fatalf("Exec(%+v) = %v, %v; the wrapper answered %v", q, got, err, want)
		}
	}
	var sc obs.Cost
	if _, err := static.Exec(q, catalog.ExecOpts{Cost: &sc}); err != nil {
		t.Fatal(err)
	}
	if costs[0] != sc || costs[1] != sc {
		t.Fatalf("Exec(%+v) cost on the view (delta %d, tombstones %d) %+v, then %+v; on the static collection %+v",
			q, v.DeltaDocs(), v.Tombstones(), costs[0], costs[1], sc)
	}
}

// assertEquivalent checks the acceptance property: the view answers
// Search/TopK/Count bit-identically — positions and probabilities — to a
// statically built catalog over the same final document set, and both find
// exactly the occurrences of the index-free oracle. Every query also runs as
// an Exec row (assertExec); a view without live documents runs a fixed
// pattern through every operation.
func assertEquivalent(t *testing.T, v *View, byID map[string]*ustring.String) {
	t.Helper()
	static, docs := staticEquivalent(t, byID, v.Spec())
	if v.Docs() != len(docs) {
		t.Fatalf("view has %d documents, want %d", v.Docs(), len(docs))
	}
	if len(docs) == 0 {
		p := []byte("AC")
		for _, q := range []core.Query{{Op: core.OpSearch, Pattern: p, Tau: 0.2}, {Op: core.OpCount, Pattern: p, Tau: 0.2}, {Op: core.OpTopK, Pattern: p, K: 3}} {
			assertExec(t, v, static, q, catalog.Result{})
		}
		return
	}
	checked := 0
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(docs, 6, m, 101) {
			for _, tau := range []float64{0.1, 0.2} {
				want, err := static.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				got, err := v.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("Search(%q, %v): dynamic %v, static %v", p, tau, got, want)
				}
				assertExec(t, v, static, core.Query{Op: core.OpSearch, Pattern: p, Tau: tau},
					catalog.Result{Hits: got, Count: len(got)})
				var oracle [][2]int
				for d, doc := range docs {
					for _, pos := range baseline.MatchDP(doc, p, tau) {
						oracle = append(oracle, [2]int{d, pos})
					}
				}
				for i, h := range got {
					if len(got) != len(oracle) || oracle[i] != [2]int{h.Doc, h.Pos} {
						t.Fatalf("Search(%q, %v) = %v, oracle %v", p, tau, got, oracle)
					}
				}
				wantN, err := static.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				gotN, err := v.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN || gotN != len(oracle) {
					t.Fatalf("Count(%q, %v) = %d, static %d, oracle %d", p, tau, gotN, wantN, len(oracle))
				}
				assertExec(t, v, static, core.Query{Op: core.OpCount, Pattern: p, Tau: tau}, catalog.Result{Count: gotN})
				if len(want) > 0 {
					checked++
				}
			}
			for _, k := range []int{1, 3, 10} {
				want, err := static.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := v.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("TopK(%q, %d): dynamic %v, static %v", p, k, got, want)
				}
				assertExec(t, v, static, core.Query{Op: core.OpTopK, Pattern: p, K: k},
					catalog.Result{Hits: got, Count: len(got)})
			}
		}
	}
	if checked == 0 {
		t.Fatal("no query returned hits; the equivalence check was vacuous")
	}
}

// TestDynamicStaticEquivalence is the acceptance test: a collection built
// by replaying Puts with interleaved deletes, replacements and an explicit
// compaction answers bit-identically to a static catalog over the same
// final document set — before and after a restart.
func TestDynamicStaticEquivalence(t *testing.T) {
	docs := testDocs(t, 3000, 7)
	dir := t.TempDir()
	st, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	byID := make(map[string]*ustring.String)
	put := func(id string, d *ustring.String) {
		t.Helper()
		if _, err := st.Put("c", id, d); err != nil {
			t.Fatalf("put %q: %v", id, err)
		}
		byID[id] = d
	}
	del := func(id string) {
		t.Helper()
		ok, err := st.Delete("c", id)
		if err != nil || !ok {
			t.Fatalf("delete %q: ok=%v err=%v", id, ok, err)
		}
		delete(byID, id)
	}

	for i := 0; i < 6; i++ {
		put(fmt.Sprintf("a%02d", i), docs[i])
	}
	del("a03")
	put("a05", docs[6]) // replace an existing document
	did, err := st.Compact("c")
	if err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	// Mutations after the compaction: new puts, a delete of a compacted
	// document, a delete of a fresh delta document.
	for i := 7; i < 10 && i < len(docs); i++ {
		put(fmt.Sprintf("b%02d", i), docs[i])
	}
	del("a01")
	del("b08")

	v, ok := st.Get("c")
	if !ok {
		t.Fatal("collection vanished")
	}
	if v.DeltaDocs() == 0 || v.Tombstones() == 0 {
		t.Fatalf("test is not exercising pending work: delta=%d tombstones=%d", v.DeltaDocs(), v.Tombstones())
	}
	assertEquivalent(t, v, byID)

	// Restart: replay checkpoint + WAL and check the same property.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	v2, ok := st2.Get("c")
	if !ok {
		t.Fatal("collection not restored")
	}
	if v2.Docs() != len(byID) {
		t.Fatalf("restored %d documents, want %d", v2.Docs(), len(byID))
	}
	assertEquivalent(t, v2, byID)

	// The restart counts the replayed records as folded, but the WAL still
	// holds them; an explicit compact must checkpoint and truncate so the log
	// cannot grow across restarts.
	if st2.Status()[0].WALRecords == 0 {
		t.Fatal("expected replayed wal records to still be pending")
	}
	if did, err := st2.Compact("c"); err != nil || !did {
		t.Fatalf("post-restart compact: did=%v err=%v", did, err)
	}
	if rec := st2.Status()[0].WALRecords; rec != 0 {
		t.Fatalf("wal holds %d records after compact", rec)
	}
	// A third open now seeds from the checkpoint alone.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	v3, _ := st3.Get("c")
	if v3.DeltaDocs() != 0 || v3.Tombstones() != 0 {
		t.Fatalf("the compacted view has pending work: delta=%d tombstones=%d", v3.DeltaDocs(), v3.Tombstones())
	}
	assertEquivalent(t, v3, byID)
}

// TestCrashRecovery is the acceptance test: after acknowledged Puts with an
// un-compacted delta, an abrupt crash (the store is abandoned, never
// closed) loses nothing — WAL replay restores every acknowledged document.
func TestCrashRecovery(t *testing.T) {
	docs := testDocs(t, 2200, 11)
	dir := t.TempDir()
	st, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	// No st.Close(): the crash is the point.

	byID := make(map[string]*ustring.String)
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("doc%02d", i)
		if _, err := st.Put("crash", id, docs[i]); err != nil {
			t.Fatalf("put %q: %v", id, err)
		}
		byID[id] = docs[i]
	}
	for _, id := range []string{"doc02", "doc05"} {
		if ok, err := st.Delete("crash", id); err != nil || !ok {
			t.Fatalf("delete %q: ok=%v err=%v", id, ok, err)
		}
		delete(byID, id)
	}
	// With no compaction ever run, every live document is a delta document
	// and nothing folded can be a tombstone.
	if v, _ := st.Get("crash"); v.Tombstones() != 0 || v.DeltaDocs() != len(byID) {
		t.Fatalf("expected an un-compacted delta, got delta=%d tombstones=%d", v.DeltaDocs(), v.Tombstones())
	} else {
		assertEquivalent(t, v, byID)
	}

	st2, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	defer st2.Close()
	v, ok := st2.Get("crash")
	if !ok {
		t.Fatal("collection not restored from WAL")
	}
	for id := range byID {
		if _, ok := v.DocNumber(id); !ok {
			t.Fatalf("acknowledged document %q lost", id)
		}
	}
	for _, id := range []string{"doc02", "doc05"} {
		if _, ok := v.DocNumber(id); ok {
			t.Fatalf("deleted document %q resurrected", id)
		}
	}
	assertEquivalent(t, v, byID)
}

// TestWALTornTail: a WAL with a torn final record (the crash-mid-append
// signature) replays every whole record, drops the tail, and accepts new
// appends afterwards.
func TestWALTornTail(t *testing.T) {
	docs := testDocs(t, 1800, 13)
	dir := t.TempDir()
	st, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Put("torn", fmt.Sprintf("d%d", i), docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a header promising more payload than exists.
	walPath := filepath.Join(dir, "torn.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatalf("open over torn wal: %v", err)
	}
	defer st2.Close()
	v, _ := st2.Get("torn")
	if v.Docs() != 5 {
		t.Fatalf("restored %d documents, want 5", v.Docs())
	}
	// Dropping the tail bumps the epoch, durably, in the manifest.
	if pos, err := st2.WALPos("torn"); err != nil || pos.Epoch != 1 {
		t.Fatalf("WALPos after the repair = %+v, %v; want epoch 1", pos, err)
	}
	// The truncated log must accept appends at the repaired offset.
	if _, err := st2.Put("torn", "d5", docs[5]); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(nil, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if v, _ := st3.Get("torn"); v.Docs() != 6 {
		t.Fatalf("after repair and append: %d documents, want 6", v.Docs())
	}
	if pos, err := st3.WALPos("torn"); err != nil || pos.Epoch != 1 {
		t.Fatalf("WALPos after a clean restart = %+v, %v; want epoch 1", pos, err)
	}
}

// TestCheckpointCrashWindow crashes a fold at each of its three points and
// checks that Open converges to the same state and leaves exactly the index
// files the manifest names:
//
//	(a) files written, manifest not renamed: the old manifest and the full
//	    WAL are served, and the new files are orphans;
//	(b) manifest renamed, WAL not truncated: replay over the new manifest is
//	    idempotent, and the files it dropped are still on disk;
//	(c) WAL truncated, dropped files not yet unlinked.
//
// Each crash is staged by putting back, after a clean fold, the files the
// fold replaced or removed from the point of the crash on.
func TestCheckpointCrashWindow(t *testing.T) {
	docs := testDocs(t, 2000, 17)
	for _, tc := range []struct {
		name    string
		restore func(rel string) bool
	}{
		{"a-files-written", func(string) bool { return true }},
		{"b-manifest-renamed", func(rel string) bool { return rel != "win.manifest" }},
		{"c-wal-truncated", func(rel string) bool { return strings.HasPrefix(rel, "win.ix") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(nil, testOptions(t, dir, -1))
			if err != nil {
				t.Fatal(err)
			}
			byID := make(map[string]*ustring.String)
			for i := 0; i < 6; i++ {
				id := fmt.Sprintf("w%d", i)
				if _, err := st.Put("win", id, docs[i]); err != nil {
					t.Fatal(err)
				}
				byID[id] = docs[i]
			}
			if _, err := st.Compact("win"); err != nil {
				t.Fatal(err)
			}
			if ok, err := st.Delete("win", "w2"); err != nil || !ok {
				t.Fatal(err)
			}
			delete(byID, "w2")
			if _, err := st.Put("win", "w4", docs[7]); err != nil {
				t.Fatal(err)
			}
			byID["w4"] = docs[7]
			if _, err := st.Put("win", "w9", docs[8]); err != nil {
				t.Fatal(err)
			}
			byID["w9"] = docs[8]
			before := readTree(t, dir)
			if did, err := st.Compact("win"); err != nil || !did {
				t.Fatalf("compact: did=%v err=%v", did, err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			for rel, raw := range before {
				if tc.restore(rel) {
					if err := os.WriteFile(filepath.Join(dir, rel), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			st2, err := Open(nil, testOptions(t, dir, -1))
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			v, _ := st2.Get("win")
			assertEquivalent(t, v, byID)
			var m manifest
			if _, err := catalog.ReadManifest(filepath.Join(dir, "win.manifest"), &m); err != nil {
				t.Fatal(err)
			}
			var named []string
			for _, d := range m.Docs {
				named = append(named, filepath.Base(catalog.IxPath(dir, "win", d.File)))
			}
			sort.Strings(named)
			if got := listIx(t, dir, "win"); !reflect.DeepEqual(got, named) {
				t.Fatalf("<name>.ix/ holds %v after Open, the manifest names %v", got, named)
			}
		})
	}
}

// readTree returns every regular file under dir by its slash-separated
// path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[filepath.ToSlash(rel)] = raw
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackgroundCompaction: crossing the threshold folds the delta without
// any explicit Compact call.
func TestBackgroundCompaction(t *testing.T) {
	docs := testDocs(t, 2200, 19)
	dir := t.TempDir()
	st, err := Open(nil, testOptions(t, dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 6; i++ {
		if _, err := st.Put("auto", fmt.Sprintf("g%d", i), docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		status := st.Status()
		if len(status) == 1 && status[0].Compactions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Queries must still be exact after the background fold.
	byID := make(map[string]*ustring.String)
	for i := 0; i < 6; i++ {
		byID[fmt.Sprintf("g%d", i)] = docs[i]
	}
	v, _ := st.Get("auto")
	assertEquivalent(t, v, byID)
}

// TestSeededFromCatalog: a store wrapped around a static catalog serves the
// seeded documents unchanged (same numbering), and mutations on top stay
// equivalent to a static build.
func TestSeededFromCatalog(t *testing.T) {
	docs := testDocs(t, 2400, 23)
	seed := docs[:6]
	cat := catalog.New(testCatalogOpts())
	if _, err := cat.Add("seeded", seed); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(cat, testOptions(t, dir, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	byID := make(map[string]*ustring.String)
	for i, d := range seed {
		byID[catalog.DocID(i)] = d
	}
	v, ok := st.Get("seeded")
	if !ok || v.Docs() != len(seed) {
		t.Fatalf("seeded view: ok=%v docs=%d", ok, v.Docs())
	}
	assertEquivalent(t, v, byID)

	if ok, err := st.Delete("seeded", catalog.DocID(1)); err != nil || !ok {
		t.Fatalf("delete seeded doc: ok=%v err=%v", ok, err)
	}
	delete(byID, catalog.DocID(1))
	if _, err := st.Put("seeded", "zzz-new", docs[6]); err != nil {
		t.Fatal(err)
	}
	byID["zzz-new"] = docs[6]
	v, _ = st.Get("seeded")
	assertEquivalent(t, v, byID)
}

// TestViewEstimate: a view with pending tombstones and delta documents
// prices a query exactly as a static collection over its live documents
// does. Deleted and replaced documents are never searched, so they are
// never charged, and the per-shard charge is paid once — admission must not
// shed a query the same documents would pass after a fold.
func TestViewEstimate(t *testing.T) {
	docs := testDocs(t, 2500, 31)
	st, err := Open(nil, testOptions(t, t.TempDir(), -1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	byID := make(map[string]*ustring.String)
	put := func(id string, d *ustring.String) {
		t.Helper()
		if _, err := st.Put("est", id, d); err != nil {
			t.Fatalf("put %q: %v", id, err)
		}
		byID[id] = d
	}
	for i := 0; i < 8; i++ {
		put(fmt.Sprintf("e%02d", i), docs[i])
	}
	if did, err := st.Compact("est"); err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	for i := 0; i < 8; i += 2 {
		id := fmt.Sprintf("e%02d", i)
		if ok, err := st.Delete("est", id); err != nil || !ok {
			t.Fatalf("delete %q: ok=%v err=%v", id, ok, err)
		}
		delete(byID, id)
	}
	for i := 8; i < 11; i++ {
		put(fmt.Sprintf("e%02d", i), docs[i])
	}
	v, _ := st.Get("est")
	if v.Tombstones() != 4 || v.DeltaDocs() != 3 {
		t.Fatalf("expected 4 tombstones and 3 delta documents, got %d and %d", v.Tombstones(), v.DeltaDocs())
	}
	static, _ := staticEquivalent(t, byID, v.Spec())
	for _, m := range []int{2, 4, 12} {
		if got, want := v.Estimate(m), static.Estimate(m); got != want {
			t.Fatalf("Estimate(%d) = %+v on the view, %+v on the static collection", m, got, want)
		}
	}
}

// TestMutationErrors covers the error surface.
func TestMutationErrors(t *testing.T) {
	docs := testDocs(t, 1500, 29)
	st, err := Open(nil, testOptions(t, t.TempDir(), -1))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := st.Delete("nope", "x"); err == nil {
		t.Fatal("delete on unknown collection did not error")
	}
	if _, err := st.Put("c", "", docs[0]); err == nil {
		t.Fatal("empty document id accepted")
	}
	if _, err := st.Put("../evil", "x", docs[0]); err == nil {
		t.Fatal("path-escaping collection name accepted")
	}
	if _, err := st.Put("c", "x", nil); err == nil {
		t.Fatal("nil document accepted")
	}
	if _, err := st.Put("c", "x", docs[0]); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Delete("c", "absent"); err != nil || ok {
		t.Fatalf("delete of absent document: ok=%v err=%v", ok, err)
	}
	res, err := st.Put("c", "x", docs[1])
	if err != nil || !res.Replaced {
		t.Fatalf("replacing put: %+v err=%v", res, err)
	}
	// Queries are validated once, up front, whatever the view holds: with
	// its only document compacted and then deleted no backend runs, which
	// once let a malformed query through as (nil, nil).
	if _, err := st.Compact("c"); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Delete("c", "x"); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	v, _ := st.Get("c")
	if v.Docs() != 0 || v.Tombstones() != 1 {
		t.Fatalf("expected one tombstone and no documents, got docs=%d tombstones=%d", v.Docs(), v.Tombstones())
	}
	assertEquivalent(t, v, map[string]*ustring.String{})
	if _, err := v.Search(nil, 0.5); !errors.Is(err, core.ErrEmptyPattern) {
		t.Fatalf("empty view Search(empty) err = %v, want ErrEmptyPattern", err)
	}
	if _, err := v.Search([]byte("A"), 0.01); !errors.Is(err, core.ErrTauBelowTauMin) {
		t.Fatalf("empty view Search(tau<taumin) err = %v, want ErrTauBelowTauMin", err)
	}
	if _, err := v.TopK(nil, 0); !errors.Is(err, core.ErrEmptyPattern) {
		t.Fatalf("empty view TopK(empty, k=0) err = %v, want ErrEmptyPattern", err)
	}
	if hits, err := v.TopK([]byte("A"), 0); err != nil || hits != nil {
		t.Fatalf("empty view TopK(k=0) = %v, %v; want nil, nil", hits, err)
	}
	if n, err := v.Count([]byte("A"), 0.5); err != nil || n != 0 {
		t.Fatalf("empty view Count = %d, %v; want 0", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("c", "y", docs[2]); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
}
