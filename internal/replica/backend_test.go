package replica_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/ustring"
)

// TestReplicationEquivalenceCompressed closes the equivalence grid for the
// compressed backend post-replication: a primary whose collection uses the
// compressed representation is mutated and compacted through HTTP, a
// follower bootstraps and tails it (adopting the compressed backend from
// the snapshot), and once caught up the follower must answer
// Search/TopK/Count bit-identically to the primary — and both must agree
// with a statically built all-plain catalog over the same final document
// set, proving the whole replicated chain is backend-independent.
func TestReplicationEquivalenceCompressed(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2400, Theta: 0.3, Seed: 139})
	if len(docs) < 10 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	copts := testCatalogOpts()
	copts.Backend = core.BackendCompressed
	pst, err := ingest.Open(nil, ingest.Options{
		Dir: t.TempDir(), Catalog: copts, CompactThreshold: -1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close() })
	ts := httptest.NewServer(server.NewIngest(pst, server.Config{}))
	t.Cleanup(ts.Close)

	// The follower's store keeps the plain default: the collection must
	// still come out compressed, because the backend travels with the
	// bootstrap snapshot.
	fst := openStore(t, -1)
	fw := startFollower(t, fst, ts.URL)

	rng := rand.New(rand.NewSource(149))
	live := map[string]*ustring.String{}
	nextDoc := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("r%04d", rng.Intn(30))
			doc := docs[nextDoc%len(docs)]
			nextDoc++
			httpPut(t, ts.URL, "comp", id, doc)
			live[id] = doc
		}
		for id := range live {
			if len(live) > 3 && rng.Intn(4) == 0 {
				httpDelete(t, ts.URL, "comp", id)
				delete(live, id)
				break
			}
		}
		httpCompact(t, ts.URL)
	}
	waitFor(t, "follower caught up", func() bool {
		return caughtUp(fw.f, fst, pst, map[string]map[string]*ustring.String{"comp": live})
	})

	pv, ok := pst.Get("comp")
	if !ok {
		t.Fatal("primary lost the collection")
	}
	fv, ok := fst.Get("comp")
	if !ok {
		t.Fatal("follower never created the collection")
	}
	if pv.Backend() != core.BackendCompressed {
		t.Fatalf("primary collection backend = %q, want compressed", pv.Backend())
	}
	if fv.Backend() != core.BackendCompressed {
		t.Fatalf("follower did not adopt the snapshot's backend: %q", fv.Backend())
	}
	assertViewsIdentical(t, pv, fv, docs)

	// Cross-backend ground truth: a plain static catalog over the same
	// final document set, documents in the view's id-sorted order.
	plainOpts := testCatalogOpts()
	cat := catalog.New(plainOpts)
	ordered := make([]*ustring.String, 0, len(live))
	for i := 0; i < pv.Docs(); i++ {
		id, _ := pv.DocID(i)
		ordered = append(ordered, live[id])
	}
	col, err := cat.Add("comp", ordered)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(docs, 5, m, 151) {
			for _, tau := range []float64{0.1, 0.2} {
				want, err := col.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fv.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("Search(%q, %v): compressed follower %v, static plain %v", p, tau, got, want)
				}
				hits += len(want)
			}
			for _, k := range []int{1, 5} {
				want, err := col.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fv.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("TopK(%q, %d): compressed follower %v, static plain %v", p, k, got, want)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no query returned hits; the equivalence check was vacuous")
	}
}

// TestInstallBackendMismatch: a snapshot naming a backend that disagrees
// with the local collection's fixed one must fail loudly, never silently
// rebuild.
func TestInstallBackendMismatch(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 600, Theta: 0.3, Seed: 157})
	primary, st := openStore(t, -1), openStore(t, -1) // plain default
	for _, s := range []*ingest.Store{primary, st} {
		if _, err := s.Put("c", "a", docs[0]); err != nil {
			t.Fatal(err)
		}
	}
	m, fetch := snapshotOf(t, primary, "c")
	plain := m.Spec
	m.Spec = core.BackendSpec{Kind: core.BackendCompressed}.Encode()
	if _, err := st.Install("c", &m, fetch); err == nil {
		t.Fatal("Install accepted a backend mismatch")
	}
	m.Spec = plain
	if _, err := st.Install("c", &m, fetch); err != nil {
		t.Fatalf("Install rejected the matching spec: %v", err)
	}
}
