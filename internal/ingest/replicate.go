package ingest

// Replication surface of the store.
//
// A primary exposes its per-collection WAL as an immutable byte stream
// addressed by (epoch, offset): ReadWAL serves whole frames from any
// committed offset, Snapshot captures the full live document set together
// with the stream position it is consistent with, and WALPos reports the
// committed head. A follower bootstraps from a Snapshot, tails the stream,
// and feeds the decoded records to Apply — the apply-without-logging path:
// the follower's own WAL stays empty because its durability is the primary's
// log, and a restarted follower simply re-bootstraps.
//
// Equivalence discipline: Apply and ApplySnapshot build document indexes
// with the exact call Put uses, and the view publication path is shared, so
// a follower that has applied the same final document set answers
// Search/TopK/Count bit-identically to its primary (both are equivalent to a
// static catalog over that document set; see the replica equivalence test).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"reflect"

	"repro/internal/core"
	"repro/internal/ustring"
)

// WALPosition is the committed head of one collection's log: Offset bytes
// (Records records) of whole frames exist in epoch Epoch. Offsets are only
// comparable within one epoch.
type WALPosition struct {
	Epoch   uint64
	Offset  int64
	Records int64
}

// ReplicaSnapshot is the bootstrap image a primary hands a follower: the
// complete live document set of one collection, the WAL position it is
// consistent with (tailing from Position replays nothing older than the
// snapshot), and the construction options the documents' indexes need.
type ReplicaSnapshot struct {
	Name    string
	TauMin  float64
	LongCap int
	// Backend is the collection's index backend kind on the primary; the
	// follower adopts it when creating the collection and fails loudly if
	// its local copy already uses a different one. (Empty in snapshots from
	// primaries predating pluggable backends: treated as plain.)
	Backend string
	// Epsilon is the approx backend's additive error bound on the primary;
	// 0 for exact backends (and in snapshots from primaries predating the
	// approx backend). Followers adopt it together with Backend, so a
	// replicated ε-collection answers under the identical error bound.
	Epsilon  float64
	Position WALPosition
	// IDs and Docs are parallel, in the collection's canonical (id-sorted)
	// order.
	IDs  []string
	Docs []*ustring.String
}

// WALPos returns the committed replication position of one collection.
func (st *Store) WALPos(coll string) (WALPosition, error) {
	if st.closed.Load() {
		return WALPosition{}, ErrClosed
	}
	lc, err := st.coll(coll, false, nil)
	if err != nil {
		return WALPosition{}, err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.posLocked(), nil
}

func (lc *liveColl) posLocked() WALPosition {
	return WALPosition{Epoch: lc.man.Epoch, Offset: lc.wal.bytes, Records: int64(lc.wal.records)}
}

// ReadWAL returns up to roughly maxBytes of whole log frames starting at
// byte offset from, together with the committed position they were read
// under. The returned slice always ends on a frame boundary and always
// contains at least one whole frame when any committed frame exists past
// from (a single frame larger than maxBytes is returned alone). A from at or
// past the committed head returns no frames. Callers must compare their
// epoch against the returned position: frames are only meaningful when the
// epochs match.
func (st *Store) ReadWAL(coll string, from int64, maxBytes int) ([]byte, WALPosition, error) {
	if st.closed.Load() {
		return nil, WALPosition{}, ErrClosed
	}
	lc, err := st.coll(coll, false, nil)
	if err != nil {
		return nil, WALPosition{}, err
	}
	lc.mu.Lock()
	pos := lc.posLocked()
	lc.mu.Unlock()
	if from < 0 || from >= pos.Offset {
		return nil, pos, nil
	}
	f, err := os.Open(st.walPath(coll))
	if err != nil {
		return nil, pos, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	// Size the read so the first frame always fits, then trim the buffer to
	// the last whole-frame boundary; [from, pos.Offset) held only whole
	// frames when pos was captured, so a pure header walk finds them.
	var header [walHeaderSize]byte
	if _, err := f.ReadAt(header[:], from); err != nil {
		return st.recheck(lc, pos)
	}
	first := walHeaderSize + int64(binary.LittleEndian.Uint32(header[0:4]))
	want := min(max(int64(maxBytes), first), pos.Offset-from, math.MaxInt32)
	buf := make([]byte, want)
	n, err := f.ReadAt(buf, from)
	if err != nil && err != io.EOF {
		return st.recheck(lc, pos)
	}
	if int64(n) < want {
		// Shorter than the committed head promised: the file was truncated
		// under us (a compaction raced the read). The epoch recheck below
		// turns this into a clean retry for the caller.
		return st.recheck(lc, pos)
	}
	end := int64(0)
	for end+walHeaderSize <= want {
		l := int64(binary.LittleEndian.Uint32(buf[end : end+4]))
		if l == 0 || l > maxWALRecord || end+walHeaderSize+l > want {
			break
		}
		end += walHeaderSize + l
	}
	// The bytes were only immutable history if the epoch did not move while
	// we read: a compaction truncating and then re-growing the file could
	// otherwise hand us new-epoch frames stamped with the old position.
	lc.mu.Lock()
	same := lc.man.Epoch == pos.Epoch
	lc.mu.Unlock()
	if !same {
		return st.recheck(lc, pos)
	}
	return buf[:end], pos, nil
}

// recheck refreshes the position after a read fell short of the committed
// head (the signature of a compaction truncating the log mid-read) and
// returns no frames: the caller observes the moved epoch and re-bootstraps,
// or — if the position is genuinely unchanged — simply retries.
func (st *Store) recheck(lc *liveColl, _ WALPosition) ([]byte, WALPosition, error) {
	lc.mu.Lock()
	pos := lc.posLocked()
	lc.mu.Unlock()
	return nil, pos, nil
}

// Snapshot captures the named collection's complete live document set and
// the WAL position it is consistent with, for follower bootstrap. The
// returned documents are immutable and shared with the serving views.
func (st *Store) Snapshot(coll string) (*ReplicaSnapshot, error) {
	if st.closed.Load() {
		return nil, ErrClosed
	}
	lc, err := st.coll(coll, false, nil)
	if err != nil {
		return nil, err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	ids, ixs := lc.sortedLiveLocked()
	docs := make([]*ustring.String, len(ixs))
	for i, ix := range ixs {
		docs[i] = ix.Source()
	}
	return &ReplicaSnapshot{
		Name:     lc.name,
		TauMin:   st.opts.Catalog.TauMin,
		LongCap:  st.opts.Catalog.LongCap,
		Backend:  lc.spec.Kind,
		Epsilon:  lc.spec.Epsilon,
		Position: lc.posLocked(),
		IDs:      ids,
		Docs:     docs,
	}, nil
}

// checkReplicaOptions rejects a snapshot whose indexes were built under
// different construction options than this store uses: applying it would
// silently break the bit-identical-results guarantee.
func (st *Store) checkReplicaOptions(tauMin float64, longCap int) error {
	if tauMin != st.opts.Catalog.TauMin {
		return fmt.Errorf("ingest: primary taumin %g differs from follower taumin %g",
			tauMin, st.opts.Catalog.TauMin)
	}
	if core.EffectiveLongCap(longCap) != core.EffectiveLongCap(st.opts.Catalog.LongCap) {
		return fmt.Errorf("ingest: primary longcap %d differs from follower longcap %d",
			longCap, st.opts.Catalog.LongCap)
	}
	return nil
}

// Apply applies replicated log records to a collection without logging them
// — the follower-side write path. Records are applied in order; the
// collection is created if needed; one fresh view is published for the whole
// batch. Index construction happens outside the writer lock, exactly as for
// Put.
func (st *Store) Apply(coll string, recs []WALRecord) error {
	if st.closed.Load() {
		return ErrClosed
	}
	if len(recs) == 0 {
		return nil
	}
	// Resolve the batch's net effect per id (later records win) and validate
	// everything before touching state.
	pending := make(map[string]*ustring.String)
	deleted := make(map[string]bool)
	for _, rec := range recs {
		if err := validateDocID(rec.ID); err != nil {
			return err
		}
		switch rec.Op {
		case OpPut:
			if rec.Doc == nil {
				return fmt.Errorf("ingest: replicated put of %q carries no document", rec.ID)
			}
			pending[rec.ID] = rec.Doc
			delete(deleted, rec.ID)
		case OpDelete:
			delete(pending, rec.ID)
			deleted[rec.ID] = true
		default:
			return fmt.Errorf("ingest: unknown replicated opcode %q", rec.Op)
		}
	}
	lc, err := st.coll(coll, true, nil)
	if err != nil {
		return err
	}
	built, err := st.buildDocs(pending, lc.spec)
	if err != nil {
		return fmt.Errorf("ingest: collection %q: %w", coll, err)
	}
	lc.mu.Lock()
	for id := range deleted {
		delete(lc.live, id)
	}
	maps.Copy(lc.live, built)
	lc.gen++
	v := lc.publishLocked()
	lc.mu.Unlock()
	// A follower accumulates delta exactly like a primary; nudge the
	// background compactor so its views keep a compact base too.
	st.maybeCompact(coll, v)
	return nil
}

// ApplySnapshot replaces a collection's live document set with a primary's
// bootstrap image. Indexes of documents whose content is unchanged are
// reused, so re-bootstrapping after a primary compaction (which ships the
// same documents under a new epoch) costs no index builds.
func (st *Store) ApplySnapshot(snap *ReplicaSnapshot) error {
	if st.closed.Load() {
		return ErrClosed
	}
	if snap == nil {
		return errors.New("ingest: nil snapshot")
	}
	if len(snap.IDs) != len(snap.Docs) {
		return fmt.Errorf("ingest: snapshot of %q has %d ids but %d documents",
			snap.Name, len(snap.IDs), len(snap.Docs))
	}
	if err := st.checkReplicaOptions(snap.TauMin, snap.LongCap); err != nil {
		return err
	}
	for _, id := range snap.IDs {
		if err := validateDocID(id); err != nil {
			return err
		}
	}
	snapSpec, err := core.NewBackendSpec(snap.Backend, snap.Epsilon)
	if err != nil {
		return fmt.Errorf("ingest: snapshot of %q: %w", snap.Name, err)
	}
	lc, err := st.coll(snap.Name, true, &snapSpec)
	if err != nil {
		return err
	}
	// A local collection that predates this snapshot may have been created
	// with a different backend spec (a stale manifest, or a follower
	// configured differently); applying the snapshot anyway would split the
	// collection across representations or error bounds, so fail loudly
	// instead.
	if err := lc.checkBackend(&snapSpec); err != nil {
		return err
	}
	lc.mu.Lock()
	prev := maps.Clone(lc.live)
	lc.mu.Unlock()
	pending := make(map[string]*ustring.String)
	reused := make(map[string]core.Backend)
	for i, id := range snap.IDs {
		if snap.Docs[i] == nil {
			return fmt.Errorf("ingest: snapshot of %q: nil document %q", snap.Name, id)
		}
		if ix, ok := prev[id]; ok && reflect.DeepEqual(ix.Source(), snap.Docs[i]) {
			reused[id] = ix
			continue
		}
		pending[id] = snap.Docs[i]
	}
	built, err := st.buildDocs(pending, lc.spec)
	if err != nil {
		return fmt.Errorf("ingest: collection %q: %w", snap.Name, err)
	}
	maps.Copy(reused, built)
	lc.mu.Lock()
	lc.live = reused
	lc.gen++
	v := lc.publishLocked()
	lc.mu.Unlock()
	st.maybeCompact(snap.Name, v)
	return nil
}
