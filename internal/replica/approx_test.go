package replica_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/ustring"
)

// TestReplicationApproxChain closes the containment grid over a replication
// chain: a primary serving an approx collection is mutated and compacted
// through HTTP, a follower bootstraps and tails it (adopting kind AND ε
// from the snapshot), and once caught up the follower answers identically
// to the primary — both built their ε-indexes from the same documents with
// the same deterministic construction — and satisfies
// exact(τ) ⊆ approx(τ) ⊆ exact(τ−ε) against a static plain catalog over
// the final document set.
func TestReplicationApproxChain(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2000, Theta: 0.3, Seed: 281})
	if len(docs) < 10 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	const eps = 0.06
	copts := testCatalogOpts()
	copts.Backend = core.BackendApprox
	copts.Epsilon = eps
	pst, err := ingest.Open(nil, ingest.Options{
		Dir: t.TempDir(), Catalog: copts, CompactThreshold: -1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close() })
	ts := httptest.NewServer(server.NewIngest(pst, server.Config{}))
	t.Cleanup(ts.Close)

	// The follower's store keeps the plain default: kind and ε must still
	// come out approx, because the spec travels with the bootstrap snapshot.
	fst := openStore(t, -1)
	fw := startFollower(t, fst, ts.URL)

	rng := rand.New(rand.NewSource(283))
	live := map[string]*ustring.String{}
	nextDoc := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("r%04d", rng.Intn(24))
			doc := docs[nextDoc%len(docs)]
			nextDoc++
			httpPut(t, ts.URL, "appr", id, doc)
			live[id] = doc
		}
		for id := range live {
			if len(live) > 3 && rng.Intn(4) == 0 {
				httpDelete(t, ts.URL, "appr", id)
				delete(live, id)
				break
			}
		}
		httpCompact(t, ts.URL)
	}
	waitFor(t, "follower caught up", func() bool {
		return caughtUp(fw.f, fst, pst, map[string]map[string]*ustring.String{"appr": live})
	})

	pv, ok := pst.Get("appr")
	if !ok {
		t.Fatal("primary lost the collection")
	}
	fv, ok := fst.Get("appr")
	if !ok {
		t.Fatal("follower never created the collection")
	}
	wantSpec := core.BackendSpec{Kind: core.BackendApprox, Epsilon: eps}
	if pv.Spec() != wantSpec {
		t.Fatalf("primary collection spec = %s, want %s", pv.Spec(), wantSpec)
	}
	if fv.Spec() != wantSpec {
		t.Fatalf("follower did not adopt the snapshot's spec: %s", fv.Spec())
	}

	// Truth: a static plain catalog over the same final document set,
	// documents in the view's id-sorted order.
	cat := catalog.New(testCatalogOpts())
	ordered := make([]*ustring.String, 0, len(live))
	for i := 0; i < pv.Docs(); i++ {
		id, _ := pv.DocID(i)
		ordered = append(ordered, live[id])
	}
	truth, err := cat.Add("appr", ordered)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(docs, 5, m, 293) {
			for _, tau := range []float64{0.2, 0.3} {
				pGot, err := pv.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				fGot, err := fv.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				// Primary and follower built the same deterministic ε-index
				// over the same documents: answers must be identical.
				if len(pGot) != len(fGot) {
					t.Fatalf("Search(%q, %v): primary %d hits, follower %d", p, tau, len(pGot), len(fGot))
				}
				for i := range pGot {
					if pGot[i] != fGot[i] {
						t.Fatalf("Search(%q, %v) hit %d: primary %+v, follower %+v", p, tau, i, pGot[i], fGot[i])
					}
				}
				upper, err := truth.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				lower, err := truth.Search(p, tau-eps)
				if err != nil {
					t.Fatal(err)
				}
				gotSet := make(map[[2]int]bool, len(fGot))
				for _, h := range fGot {
					gotSet[[2]int{h.Doc, h.Pos}] = true
				}
				lowerSet := make(map[[2]int]bool, len(lower))
				for _, h := range lower {
					lowerSet[[2]int{h.Doc, h.Pos}] = true
				}
				for _, h := range upper {
					if !gotSet[[2]int{h.Doc, h.Pos}] {
						t.Fatalf("Search(%q, %v): replicated approx missed exact hit %+v", p, tau, h)
					}
				}
				for _, h := range fGot {
					if !lowerSet[[2]int{h.Doc, h.Pos}] {
						t.Fatalf("Search(%q, %v): replicated approx reported %+v below τ−ε", p, tau, h)
					}
				}
				pn, err := pv.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				fn, err := fv.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if pn != len(pGot) || fn != len(fGot) {
					t.Fatalf("Count(%q, %v): primary %d/%d, follower %d/%d", p, tau, pn, len(pGot), fn, len(fGot))
				}
				hits += len(fGot)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no query returned hits; the replication containment check was vacuous")
	}
}

// TestInstallEpsilonMismatch: a snapshot whose ε disagrees with the local
// collection's fixed spec must fail loudly, exactly like a kind mismatch.
func TestInstallEpsilonMismatch(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 400, Theta: 0.3, Seed: 307})
	copts := testCatalogOpts()
	copts.Backend = core.BackendApprox
	copts.Epsilon = 0.05
	open := func() *ingest.Store {
		st, err := ingest.Open(nil, ingest.Options{
			Dir: t.TempDir(), Catalog: copts, CompactThreshold: -1, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	primary, st := open(), open()
	for _, s := range []*ingest.Store{primary, st} {
		if _, err := s.Put("c", "a", docs[0]); err != nil {
			t.Fatal(err)
		}
	}
	m, fetch := snapshotOf(t, primary, "c")
	good := m.Spec
	spec, err := core.NewBackendSpec(core.BackendApprox, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m.Spec = spec.Encode()
	if _, err := st.Install("c", &m, fetch); err == nil {
		t.Fatal("Install accepted an epsilon mismatch")
	}
	m.Spec = good
	if _, err := st.Install("c", &m, fetch); err != nil {
		t.Fatalf("Install rejected the matching spec: %v", err)
	}
}
