package server

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// feedRoleError gates the replication feed by the current role: only an
// unfenced primary serves history. A replica answers a typed wrong_role, a
// fenced primary a typed stale_epoch — both permanent conditions a follower
// surfaces in CollectionLag.Status instead of retrying blind.
func (s *Server) feedRoleError() error {
	if s.Role() != RolePrimary {
		return &httpError{status: http.StatusForbidden, code: codeWrongRole,
			msg: fmt.Sprintf("replication feed requires a primary; this node is a %s", s.EffectiveRole())}
	}
	if fenced, info := s.ingest.Fenced(); fenced {
		return &httpError{status: http.StatusConflict, code: codeStaleEpoch,
			msg: fmt.Sprintf("this primary is fenced: collection %q is at epoch %d but a consumer presented epoch %d",
				info.Collection, info.LocalEpoch, info.SeenEpoch)}
	}
	return nil
}

// handleReplicationWAL answers one follower poll against the primary's WAL
// feed: frames from the requested (epoch, from), or a snapshot-required
// signal when that position no longer names live history. A poll carrying
// an epoch ABOVE the collection's own is a fencing probe — proof a promoted
// peer exists — and demotes this node before anything is served.
func (s *Server) handleReplicationWAL(r *http.Request, _ *obs.Trace, _ *obs.Cost) (any, error) {
	q := r.URL.Query()
	coll := q.Get("collection")
	if coll == "" {
		return nil, badRequest("missing collection parameter")
	}
	var epoch uint64
	if raw := q.Get("epoch"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return nil, badRequest("bad epoch %q", raw)
		}
		epoch = v
	}
	var from int64
	if raw := q.Get("from"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return nil, badRequest("bad from offset %q", raw)
		}
		from = v
	}
	if s.Role() == RolePrimary && s.ingest.FenceIfStale(coll, epoch) {
		s.noteFenced()
	}
	if err := s.feedRoleError(); err != nil {
		return nil, err
	}
	chunk, err := s.feed.WAL(coll, epoch, from)
	if err != nil {
		return nil, mutationStatus(err)
	}
	return chunk, nil
}

// handleReplicationSnapshot answers a follower's bootstrap request with the
// collection's committed manifest and epoch (replica.Snapshot), folding a
// collection whose seed documents no manifest names yet.
func (s *Server) handleReplicationSnapshot(r *http.Request, _ *obs.Trace, _ *obs.Cost) (any, error) {
	coll := r.URL.Query().Get("collection")
	if coll == "" {
		return nil, badRequest("missing collection parameter")
	}
	if err := s.feedRoleError(); err != nil {
		return nil, err
	}
	snap, err := s.feed.Snapshot(coll)
	if err != nil {
		return nil, mutationStatus(err)
	}
	return snap, nil
}

// handleReplicationFile answers one index file a snapshot names, streamed
// from disk. A file a later fold unlinked answers 404; the follower then
// re-bootstraps.
func (s *Server) handleReplicationFile(r *http.Request, _ *obs.Trace, _ *obs.Cost) (any, error) {
	q := r.URL.Query()
	coll := q.Get("collection")
	if coll == "" {
		return nil, badRequest("missing collection parameter")
	}
	n, err := strconv.ParseUint(q.Get("file"), 10, 64)
	if err != nil {
		return nil, badRequest("bad file number %q", q.Get("file"))
	}
	if err := s.feedRoleError(); err != nil {
		return nil, err
	}
	f, err := s.feed.File(coll, n)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("file %d of %q is gone", n, coll)}
	}
	if err != nil {
		return nil, mutationStatus(err)
	}
	return f, nil
}
