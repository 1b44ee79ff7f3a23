package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/replica"
)

// roleOf fetches the /v1/stats role field.
func roleOf(t *testing.T, s *Server) string {
	t.Helper()
	var stats struct {
		Role string `json:"role"`
	}
	get(t, s, "/v1/stats", http.StatusOK, &stats)
	return stats.Role
}

// TestStatsRole is the regression for telling server flavours apart: a
// static catalog, a mutable primary and a read replica each report their
// role in /v1/stats, so "read-only" is no longer ambiguous between "static
// catalog" and "replica".
func TestStatsRole(t *testing.T) {
	static, _ := testServer(t, Config{})
	if got := roleOf(t, static); got != "static" {
		t.Fatalf("static server reports role %q", got)
	}

	primary, _, _ := testIngestServer(t, Config{})
	if got := roleOf(t, primary); got != "primary" {
		t.Fatalf("primary server reports role %q", got)
	}

	_, fst, _ := testIngestServer(t, Config{})
	f, err := replica.NewFollower(replica.FollowerOptions{
		Primary: "http://primary.invalid:7331",
		Store:   fst,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(f, Config{})
	if got := roleOf(t, rep); got != "replica" {
		t.Fatalf("replica server reports role %q", got)
	}

	// The replica also reports its replication section…
	var stats struct {
		Replication *struct {
			Primary string `json:"primary"`
		} `json:"replication"`
	}
	get(t, rep, "/v1/stats", http.StatusOK, &stats)
	if stats.Replication == nil || stats.Replication.Primary != "http://primary.invalid:7331" {
		t.Fatalf("replica stats missing replication section: %+v", stats.Replication)
	}
	// …while the others do not.
	for name, s := range map[string]*Server{"static": static, "primary": primary} {
		var other struct {
			Replication any `json:"replication"`
		}
		get(t, s, "/v1/stats", http.StatusOK, &other)
		if other.Replication != nil {
			t.Fatalf("%s server reports a replication section", name)
		}
	}
}

// TestReplicaRejectsMutations: a replica answers writes with 403 and points
// the client at the primary, and does not serve the replication feed (that
// is the primary's job).
func TestReplicaRejectsMutations(t *testing.T) {
	_, fst, docs := testIngestServer(t, Config{})
	f, err := replica.NewFollower(replica.FollowerOptions{
		Primary: "http://primary.invalid:7331",
		Store:   fst,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(f, Config{})

	var e errorResponse
	do(t, rep, http.MethodPut, "/v1/collections/prot/documents/x",
		marshalDoc(t, docs[0]), http.StatusForbidden, &e)
	if !strings.Contains(e.Error, "replica") || !strings.Contains(e.Error, "http://primary.invalid:7331") {
		t.Fatalf("replica 403 does not name the primary: %q", e.Error)
	}
	do(t, rep, http.MethodDelete, "/v1/collections/prot/documents/x", "", http.StatusForbidden, &e)
	if !strings.Contains(e.Error, "replica") {
		t.Fatalf("delete on replica: %q", e.Error)
	}
	do(t, rep, http.MethodPost, "/v1/compact", "", http.StatusForbidden, nil)

	// Queries still flow from the replicated store's views.
	p := pattern(t, docs, 3)
	get(t, rep, "/v1/query?collection=prot&p="+p+"&tau=0.15", http.StatusOK, nil)

	// The replication feed is registered wherever a store exists (so a
	// promoted replica can serve it without rebuilding the mux) but answers
	// a typed wrong_role until this node actually is the primary. A static
	// server has no store at all, so there the endpoint does not exist.
	get(t, rep, "/v1/replication/wal?collection=prot", http.StatusForbidden, &e)
	if e.Code != codeWrongRole {
		t.Fatalf("feed on replica: code %q, want %q", e.Code, codeWrongRole)
	}
	get(t, rep, "/v1/replication/snapshot?collection=prot", http.StatusForbidden, nil)
	static, _ := testServer(t, Config{})
	get(t, static, "/v1/replication/wal?collection=prot", http.StatusNotFound, nil)
}

// TestReplicationFeedEndpoints covers the primary's feed surface over HTTP:
// a fresh follower position gets frames, a stale epoch gets the
// snapshot-required signal, and the snapshot endpoint streams a decodable
// image consistent with the feed position.
func TestReplicationFeedEndpoints(t *testing.T) {
	s, st, docs := testIngestServer(t, Config{})
	if _, err := st.Put("prot", "zzz-extra", docs[0]); err != nil {
		t.Fatal(err)
	}
	pos, err := st.WALPos("prot")
	if err != nil {
		t.Fatal(err)
	}

	var chunk replica.WALChunk
	get(t, s, "/v1/replication/wal?collection=prot&epoch=0&from=0", http.StatusOK, &chunk)
	if chunk.SnapshotRequired || len(chunk.Frames) == 0 || chunk.Committed != pos.Offset {
		t.Fatalf("feed chunk = %+v (want frames up to %d)", chunk, pos.Offset)
	}

	// A checkpoint bumps the epoch; a poll still naming the pre-checkpoint
	// epoch no longer addresses live history and gets the snapshot signal.
	if _, err := st.Compact("prot"); err != nil {
		t.Fatal(err)
	}
	newPos, err := st.WALPos("prot")
	if err != nil {
		t.Fatal(err)
	}
	if newPos.Epoch <= pos.Epoch {
		t.Fatalf("compact did not bump the epoch: %d -> %d", pos.Epoch, newPos.Epoch)
	}
	get(t, s, "/v1/replication/wal?collection=prot&epoch="+
		strconv.FormatUint(pos.Epoch, 10)+"&from=0", http.StatusOK, &chunk)
	if !chunk.SnapshotRequired {
		t.Fatalf("stale epoch not flagged: %+v", chunk)
	}
	pos = newPos
	get(t, s, "/v1/replication/wal?collection=nope&epoch=0&from=0", http.StatusNotFound, nil)
	get(t, s, "/v1/replication/wal?epoch=0&from=0", http.StatusBadRequest, nil)
	get(t, s, "/v1/replication/wal?collection=prot&from=oops", http.StatusBadRequest, nil)

	var snap replica.Snapshot
	get(t, s, "/v1/replication/snapshot?collection=prot", http.StatusOK, &snap)
	if snap.Collection != "prot" || len(snap.Manifest.Docs) == 0 || snap.Epoch != pos.Epoch {
		t.Fatalf("snapshot = collection %q, %d docs, epoch %d", snap.Collection, len(snap.Manifest.Docs), snap.Epoch)
	}
	if _, ok := find(snap.Manifest.Docs, "zzz-extra"); !ok {
		t.Fatalf("snapshot misses the live put: %+v", snap.Manifest.Docs)
	}
	// Every file the manifest names is served byte for byte: its SHA-256 is
	// the manifest's sum.
	for _, d := range snap.Manifest.Docs {
		req := httptest.NewRequest(http.MethodGet, "/v1/replication/file?collection=prot&file="+
			strconv.FormatUint(d.File, 10), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		sum := sha256.Sum256(rec.Body.Bytes())
		if rec.Code != http.StatusOK || hex.EncodeToString(sum[:]) != d.Sum {
			t.Fatalf("file %d of %q: status %d, sum %x, manifest sum %s", d.File, d.ID, rec.Code, sum, d.Sum)
		}
	}
	get(t, s, "/v1/replication/file?collection=prot&file="+strconv.FormatUint(snap.Manifest.Next, 10),
		http.StatusNotFound, nil)
	get(t, s, "/v1/replication/file?collection=prot&file=x", http.StatusBadRequest, nil)
	get(t, s, "/v1/replication/file?collection=nope&file=0", http.StatusNotFound, nil)
	get(t, s, "/v1/replication/snapshot?collection=nope", http.StatusNotFound, nil)
	get(t, s, "/v1/replication/snapshot", http.StatusBadRequest, nil)

	// A poll carrying an epoch ABOVE the collection's own proves a promoted
	// peer exists somewhere: the primary fences itself, reports the fenced
	// role, and answers every further feed request with a typed 409.
	var e errorResponse
	get(t, s, "/v1/replication/wal?collection=prot&epoch="+
		strconv.FormatUint(pos.Epoch+5, 10)+"&from=0", http.StatusConflict, &e)
	if e.Code != codeStaleEpoch {
		t.Fatalf("fencing probe: code %q, want %q", e.Code, codeStaleEpoch)
	}
	get(t, s, "/v1/replication/snapshot?collection=prot", http.StatusConflict, nil)
	if got := roleOf(t, s); got != "fenced" {
		t.Fatalf("fenced primary reports role %q", got)
	}
}

func find(docs []catalog.ManifestDoc, want string) (catalog.ManifestDoc, bool) {
	for _, d := range docs {
		if d.ID == want {
			return d, true
		}
	}
	return catalog.ManifestDoc{}, false
}
