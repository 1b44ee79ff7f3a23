package ingest

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestBackendSurvivesRestart: a collection created with an explicit backend
// must come back in that backend after a restart — WAL replay reads the
// manifest and rebuilds replayed documents into the recorded representation,
// even though the store's default differs — and answer queries identically.
func TestBackendSurvivesRestart(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 1500, Theta: 0.3, Seed: 163})
	if len(docs) < 6 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	dir := t.TempDir()
	opts := Options{Dir: dir, Catalog: catalog.Options{TauMin: 0.1}, CompactThreshold: -1, Logf: t.Logf}
	st, err := Open(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutWithBackend("c", "a", docs[0], core.BackendCompressed); err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"b", "d", "e"} {
		if _, err := st.Put("c", id, docs[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	// A conflicting backend on the live store fails loudly.
	if _, err := st.PutWithBackend("c", "f", docs[5], core.BackendPlain); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("PutWithBackend mismatch error = %v, want ErrBackendMismatch", err)
	}
	v, _ := st.Get("c")
	pats := gen.CollectionPatterns(docs, 6, 3, 167)
	type result struct {
		hits []catalog.DocHit
		n    int
	}
	before := make([]result, len(pats))
	for i, p := range pats {
		hits, err := v.Search(p, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		n, err := v.Count(p, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = result{hits, n}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(nil, opts) // plain default; sidecar must win
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	v2, ok := st2.Get("c")
	if !ok {
		t.Fatal("collection lost across restart")
	}
	if v2.Backend() != core.BackendCompressed {
		t.Fatalf("restart changed the backend to %q", v2.Backend())
	}
	if v2.IndexBytes() <= 0 {
		t.Fatal("restarted view reports no index bytes")
	}
	for i, p := range pats {
		hits, err := v2.Search(p, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hits, before[i].hits) && !(len(hits) == 0 && len(before[i].hits) == 0) {
			t.Fatalf("Search(%q) diverged across restart", p)
		}
		n, err := v2.Count(p, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		if n != before[i].n {
			t.Fatalf("Count(%q) = %d after restart, want %d", p, n, before[i].n)
		}
	}
}

// TestBadManifestFailsLoudly: an empty manifest (the signature of a torn
// write) or a garbled one must abort Open instead of silently rebuilding the
// collection into the default representation or starting it empty.
func TestBadManifestFailsLoudly(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 400, Theta: 0.3, Seed: 199})
	for _, bad := range []string{"", "not json", `{"spec":"compressed","tau_min":0.1}trailing`,
		`{"spec":"nope","tau_min":0.1}`, `{"spec":"plain","tau_min":0.1,"next":1,"docs":[{"id":"b","file":0},{"id":"a","file":1}]}`} {
		dir := t.TempDir()
		opts := Options{Dir: dir, Catalog: catalog.Options{TauMin: 0.1}, CompactThreshold: -1, Logf: t.Logf}
		st, err := Open(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.PutWithBackend("c", "a", docs[0], core.BackendCompressed); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "c.manifest")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(nil, opts); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("Open over the manifest %q: err = %v, want an error naming %s", bad, err, path)
		}
	}
}

// TestStoreDefaultBackend: a store opened with a compressed default creates
// compressed collections from plain Puts, and its status reports them.
func TestStoreDefaultBackend(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 500, Theta: 0.3, Seed: 173})
	st, err := Open(nil, Options{
		Dir:              t.TempDir(),
		Catalog:          catalog.Options{TauMin: 0.1, Backend: core.BackendCompressed},
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
	if v.Backend() != core.BackendCompressed {
		t.Fatalf("store default ignored: backend %q", v.Backend())
	}
	status := st.Status()
	if len(status) != 1 || status[0].Backend != core.BackendCompressed || status[0].IndexBytes <= 0 {
		t.Fatalf("status misreports the backend: %+v", status)
	}
}
