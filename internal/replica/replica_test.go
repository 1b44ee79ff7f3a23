package replica_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/ustring"
)

// testCatalogOpts is the construction configuration shared by the primary
// and every follower: replication requires identical options.
func testCatalogOpts() catalog.Options {
	return catalog.Options{TauMin: 0.1, Shards: 3}
}

func openStore(t *testing.T, threshold int) *ingest.Store {
	t.Helper()
	st, err := ingest.Open(nil, ingest.Options{
		Dir:              t.TempDir(),
		Catalog:          testCatalogOpts(),
		CompactThreshold: threshold,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// snapshotOf returns the bootstrap manifest of one collection of st and a
// fetch reading its files straight from st's directory.
func snapshotOf(t *testing.T, st *ingest.Store, coll string) (catalog.Manifest, func(catalog.ManifestDoc) (io.ReadCloser, error)) {
	t.Helper()
	m, _, err := st.ReplicaManifest(coll)
	if err != nil {
		t.Fatal(err)
	}
	return m, func(d catalog.ManifestDoc) (io.ReadCloser, error) {
		return os.Open(catalog.IxPath(st.Options().Dir, coll, d.File))
	}
}

// newPrimary builds a mutable primary and serves it over httptest.
func newPrimary(t *testing.T, threshold int) (*ingest.Store, *httptest.Server) {
	t.Helper()
	st := openStore(t, threshold)
	ts := httptest.NewServer(server.NewIngest(st, server.Config{}))
	t.Cleanup(ts.Close)
	return st, ts
}

// follower is one running follower instance; kill stops it and waits for
// its tailers, simulating a process death.
type follower struct {
	f    *replica.Follower
	kill func()
}

// startFollower launches a follower over st against primaryURL.
func startFollower(t *testing.T, st *ingest.Store, primaryURL string) *follower {
	t.Helper()
	f, err := replica.NewFollower(replica.FollowerOptions{
		Primary:          primaryURL,
		Store:            st,
		PollInterval:     2 * time.Millisecond,
		DiscoverInterval: 10 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	kill := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("follower did not stop within 10s")
		}
	}
	t.Cleanup(kill)
	return &follower{f: f, kill: kill}
}

// httpPut inserts a document through the primary's public API.
func httpPut(t *testing.T, base, coll, id string, doc *ustring.String) {
	t.Helper()
	var body bytes.Buffer
	if err := ustring.Marshal(&body, doc); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/collections/%s/documents/%s", base, coll, id), &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put %s/%s: status %d", coll, id, resp.StatusCode)
	}
}

func httpDelete(t *testing.T, base, coll, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/collections/%s/documents/%s", base, coll, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete %s/%s: status %d", coll, id, resp.StatusCode)
	}
}

func httpCompact(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// caughtUp reports whether the follower has applied everything the (now
// quiesced) primary committed: same epoch and at least the primary's head
// offset per collection, plus the expected document sets. The position
// check matters — a replaced document leaves the id set unchanged, so doc
// counts alone cannot detect a half-applied stream.
func caughtUp(f *replica.Follower, fst, pst *ingest.Store, want map[string]map[string]*ustring.String) bool {
	if !f.CaughtUp() {
		return false
	}
	status := make(map[string]replica.CollectionLag)
	for _, cs := range f.Status() {
		status[cs.Collection] = cs
	}
	for coll, byID := range want {
		pos, err := pst.WALPos(coll)
		if err != nil {
			return false
		}
		cs, ok := status[coll]
		if !ok || cs.Epoch != pos.Epoch || cs.AppliedOffset < pos.Offset {
			return false
		}
		v, ok := fst.Get(coll)
		if !ok || v.Docs() != len(byID) {
			return false
		}
		for id := range byID {
			if _, ok := v.DocNumber(id); !ok {
				return false
			}
		}
	}
	return true
}

// assertViewsIdentical is the acceptance check: the follower answers
// Search/TopK/Count bit-identically — positions and probabilities — to the
// primary over a grid of patterns, thresholds and k.
func assertViewsIdentical(t *testing.T, primary, follower *ingest.View, docs []*ustring.String) {
	t.Helper()
	if primary.Docs() != follower.Docs() {
		t.Fatalf("primary holds %d documents, follower %d", primary.Docs(), follower.Docs())
	}
	hits := 0
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(docs, 6, m, 131) {
			for _, tau := range []float64{0.1, 0.15, 0.2} {
				want, err := primary.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				got, err := follower.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("Search(%q, %v): follower %v, primary %v", p, tau, got, want)
				}
				wantN, err := primary.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				gotN, err := follower.Count(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("Count(%q, %v) = %d on follower, %d on primary", p, tau, gotN, wantN)
				}
				hits += len(want)
			}
			for _, k := range []int{1, 3, 10} {
				want, err := primary.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := follower.TopK(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("TopK(%q, %d): follower %v, primary %v", p, k, got, want)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no query returned hits; the equivalence check was vacuous")
	}
}

// TestReplicationEquivalence is the acceptance test: a follower that
// bootstrapped from a snapshot, was killed and restarted twice mid-stream
// (with primary compactions — epoch changes — while it was down), and
// caught up again answers Search/TopK/Count bit-identically to the primary
// over the same final document set, driven by a randomized Put/Delete/
// compact workload through the primary's public HTTP API.
func TestReplicationEquivalence(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 3200, Theta: 0.3, Seed: 103})
	if len(docs) < 12 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	pst, ts := newPrimary(t, -1)
	rng := rand.New(rand.NewSource(211))
	byColl := map[string]map[string]*ustring.String{"c": {}}

	// randomOps drives n randomized mutations against collection "c",
	// compacting the primary with probability 1/12 per op.
	randomOps := func(n int) {
		byID := byColl["c"]
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.6 || len(byID) == 0:
				id := fmt.Sprintf("doc-%02d", rng.Intn(24))
				d := docs[rng.Intn(len(docs))]
				httpPut(t, ts.URL, "c", id, d)
				byID[id] = d
			case r < 0.85:
				for id := range byID { // delete one existing document
					httpDelete(t, ts.URL, "c", id)
					delete(byID, id)
					break
				}
			default:
				httpCompact(t, ts.URL)
			}
		}
	}

	randomOps(12)
	fst := openStore(t, -1)
	f1 := startFollower(t, fst, ts.URL)
	waitFor(t, "first bootstrap", func() bool {
		st := f1.f.Status()
		return len(st) > 0 && st[0].Snapshots > 0
	})

	// Mid-stream kill #1: more mutations land while the follower is down,
	// and a compaction moves the WAL epoch out from under its position.
	randomOps(10)
	f1.kill()
	randomOps(10)
	httpCompact(t, ts.URL)

	// Restart over the same store: the follower must detect the epoch
	// change, re-bootstrap, and keep tailing.
	f2 := startFollower(t, fst, ts.URL)
	randomOps(10)

	// A collection born while the follower is live must be discovered.
	byColl["aux"] = map[string]*ustring.String{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("aux-%d", i)
		d := docs[rng.Intn(len(docs))]
		httpPut(t, ts.URL, "aux", id, d)
		byColl["aux"][id] = d
	}

	// Mid-stream kill #2.
	f2.kill()
	randomOps(8)
	f3 := startFollower(t, fst, ts.URL)
	randomOps(8)

	waitFor(t, "final catch-up", func() bool { return caughtUp(f3.f, fst, pst, byColl) })

	// The apply path must not have logged anything locally: the follower's
	// durability is the primary's WAL.
	for _, cs := range fst.Status() {
		if cs.WALRecords != 0 || cs.WALBytes != 0 {
			t.Fatalf("follower logged locally: %+v", cs)
		}
	}
	if st := f3.f.Status(); len(st) == 0 || st[0].Snapshots == 0 {
		t.Fatalf("restarted follower never bootstrapped: %+v", st)
	}

	for coll, byID := range byColl {
		pv, ok := pst.Get(coll)
		if !ok {
			t.Fatalf("primary lost collection %q", coll)
		}
		fv, ok := fst.Get(coll)
		if !ok {
			t.Fatalf("follower lost collection %q", coll)
		}
		final := make([]*ustring.String, 0, len(byID))
		for _, d := range byID {
			final = append(final, d)
		}
		if coll == "c" {
			assertViewsIdentical(t, pv, fv, final)
		} else if pv.Docs() != fv.Docs() {
			t.Fatalf("collection %q: primary %d documents, follower %d", coll, pv.Docs(), fv.Docs())
		}
	}
}

// TestFollowerSurvivesPrimaryRestart: a primary that is closed and reopened
// over the same WAL directory keeps its epoch and offsets, so a live
// follower resumes without data loss; a torn tail on the primary bumps the
// epoch and forces a clean re-bootstrap instead of serving recycled
// offsets.
func TestFollowerSurvivesPrimaryRestart(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 1600, Theta: 0.3, Seed: 107})
	dir := t.TempDir()
	open := func() *ingest.Store {
		st, err := ingest.Open(nil, ingest.Options{
			Dir: dir, Catalog: testCatalogOpts(), CompactThreshold: -1, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	pst := open()
	// The handler is swapped when the primary "restarts"; an atomic keeps the
	// stable ts.URL pointing at whichever incarnation is current.
	var cur atomic.Pointer[server.Server]
	cur.Store(server.NewIngest(pst, server.Config{}))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	byID := map[string]*ustring.String{}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("d%d", i)
		httpPut(t, ts.URL, "c", id, docs[i%len(docs)])
		byID[id] = docs[i%len(docs)]
	}
	fst := openStore(t, -1)
	fw := startFollower(t, fst, ts.URL)
	want := map[string]map[string]*ustring.String{"c": byID}
	waitFor(t, "pre-restart catch-up", func() bool { return caughtUp(fw.f, fst, pst, want) })

	// Graceful primary restart: same WAL, same epoch, offsets still valid.
	if err := pst.Close(); err != nil {
		t.Fatal(err)
	}
	pst2 := open()
	defer pst2.Close()
	cur.Store(server.NewIngest(pst2, server.Config{}))
	id := "after-restart"
	httpPut(t, ts.URL, "c", id, docs[7%len(docs)])
	byID[id] = docs[7%len(docs)]
	waitFor(t, "post-restart catch-up", func() bool { return caughtUp(fw.f, fst, pst2, want) })

	pv, _ := pst2.Get("c")
	fv, _ := fst.Get("c")
	final := make([]*ustring.String, 0, len(byID))
	for _, d := range byID {
		final = append(final, d)
	}
	assertViewsIdentical(t, pv, fv, final)
}
