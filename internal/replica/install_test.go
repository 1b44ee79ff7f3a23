package replica_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/ustring"
)

// countingPrimary serves st and counts the index files followers fetch.
func countingPrimary(t *testing.T, st *ingest.Store) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	h := server.NewIngest(st, server.Config{})
	var files atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/file" {
			files.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &files
}

// openFollowerStore opens a persistent follower store over dir, counting
// index builds in reg.
func openFollowerStore(t *testing.T, dir string, reg *obs.Registry) *ingest.Store {
	t.Helper()
	st, err := ingest.Open(nil, ingest.Options{
		Dir: dir, Catalog: testCatalogOpts(), CompactThreshold: -1, Logf: t.Logf, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func builds(reg *obs.Registry) int64 {
	return reg.HistogramVec("ustridx_index_build_seconds", "", nil, "backend").With(core.BackendPlain).Count()
}

// TestFollowerCopiesOnlyMissingFiles pins the file traffic of replication
// with counts, not timings: a bootstrap copies every file once, a re-sync
// after a primary fold that writes k files copies exactly those k and
// builds no index, and a restarted follower over its own directory copies
// nothing.
func TestFollowerCopiesOnlyMissingFiles(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 1600, Theta: 0.3, Seed: 401})
	pst := openStore(t, -1)
	ts, files := countingPrimary(t, pst)
	want := map[string]map[string]*ustring.String{"c": {}}
	put := func(from, to int) {
		for i := from; i < to; i++ {
			id := fmt.Sprintf("d%02d", i)
			httpPut(t, ts.URL, "c", id, docs[i%len(docs)])
			want["c"][id] = docs[i%len(docs)]
		}
	}
	put(0, 6)
	httpCompact(t, ts.URL)

	dir := t.TempDir()
	reg := obs.NewRegistry()
	fst := openFollowerStore(t, dir, reg)
	fw := startFollower(t, fst, ts.URL)
	waitFor(t, "bootstrap", func() bool { return caughtUp(fw.f, fst, pst, want) })
	if got := files.Load(); got != 6 {
		t.Fatalf("bootstrap fetched %d files, want 6", got)
	}
	if got := builds(reg); got != 0 {
		t.Fatalf("bootstrap built %d indexes, want 0", got)
	}

	// Three puts reach the follower as WAL records, which it indexes; the
	// fold that writes their files moves the epoch.
	put(6, 9)
	waitFor(t, "tail", func() bool { return caughtUp(fw.f, fst, pst, want) })
	built := builds(reg)
	httpCompact(t, ts.URL)
	waitFor(t, "re-sync", func() bool {
		st := fw.f.Status()
		return len(st) == 1 && st[0].Snapshots == 2 && caughtUp(fw.f, fst, pst, want)
	})
	if got := files.Load(); got != 6+3 {
		t.Fatalf("re-sync fetched %d files, want 3", got-6)
	}
	if got := builds(reg); got != built {
		t.Fatalf("re-sync built %d indexes, want 0", got-built)
	}
	pv, _ := pst.Get("c")
	fv, _ := fst.Get("c")
	assertViewsIdentical(t, pv, fv, docs[:9])

	// A restart over the follower's own directory finds every file again.
	fw.kill()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	fst = openFollowerStore(t, dir, reg)
	defer fst.Close()
	fw = startFollower(t, fst, ts.URL)
	waitFor(t, "restart", func() bool {
		st := fw.f.Status()
		return len(st) == 1 && st[0].Snapshots == 1 && caughtUp(fw.f, fst, pst, want)
	})
	if got := files.Load(); got != 9 {
		t.Fatalf("restarted follower fetched %d files, want 0", got-9)
	}
	if got := builds(reg); got != 0 {
		t.Fatalf("restarted follower built %d indexes, want 0", got)
	}
	fv, _ = fst.Get("c")
	assertViewsIdentical(t, pv, fv, docs[:9])
}

// TestInstallRejectsBadDigest: a fetched file whose SHA-256 differs from
// the manifest's sum is never installed — the collection keeps its state
// and no file is left named — and the correct bytes install afterwards.
func TestInstallRejectsBadDigest(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 600, Theta: 0.3, Seed: 409})
	primary, st := openStore(t, -1), openStore(t, -1)
	for i := 0; i < 3; i++ {
		if _, err := primary.Put("c", fmt.Sprintf("d%d", i), docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	m, fetch := snapshotOf(t, primary, "c")
	corrupt := func(d catalog.ManifestDoc) (io.ReadCloser, error) {
		rc, err := fetch(d)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		raw, err := io.ReadAll(rc)
		if err != nil {
			return nil, err
		}
		raw[len(raw)/2] ^= 1
		return io.NopCloser(bytes.NewReader(raw)), nil
	}
	if _, err := st.Install("c", &m, corrupt); err == nil {
		t.Fatal("Install accepted a file whose digest differs from its sum")
	}
	if v, ok := st.Get("c"); !ok || v.Docs() != 0 {
		t.Fatalf("a failed Install changed the collection")
	}
	var own catalog.Manifest
	if _, err := catalog.ReadManifest(catalog.ManifestPath(st.Options().Dir, "c"), &own); err != nil || len(own.Docs) != 0 {
		t.Fatalf("a failed Install committed %+v (%v)", own.Docs, err)
	}
	if entries, _ := os.ReadDir(catalog.IxDir(st.Options().Dir, "c")); len(entries) != 0 {
		t.Fatalf("the corrupt file was left in place: %v", entries)
	}
	n, err := st.Install("c", &m, fetch)
	if err != nil || n != 3 {
		t.Fatalf("Install of the good files: %d fetched, %v", n, err)
	}
	pv, _ := primary.Get("c")
	fv, _ := st.Get("c")
	assertViewsIdentical(t, pv, fv, docs[:3])
}
