package ingest

// Replication surface of the store.
//
// A primary exposes its per-collection WAL as an immutable byte stream
// addressed by (epoch, offset): ReadWAL serves whole frames from any
// committed offset and WALPos reports the committed head. The bootstrap
// image is the collection's own on-disk form, its manifest
// (ReplicaManifest): a fold commits the manifest before it truncates the
// log, and torn-tail repair and Takeover bump the epoch without touching
// it, so the WAL of its epoch read from offset 0 holds exactly what it
// lacks. A follower installs the manifest (Install), copying only the
// files it lacks, then tails from (epoch, 0) and feeds the records to
// Apply — the apply-without-logging path: its durability is the primary's
// log.
//
// Equivalence discipline: Install serves the primary's own index files,
// Apply builds indexes with the exact call Put uses, and the view
// publication path is shared, so a follower that has applied the same final
// document set answers Search/TopK/Count bit-identically to its primary
// (both are equivalent to a static catalog over that document set; see the
// replica equivalence test).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"os"

	"repro/internal/catalog"
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

// ReplicaManifest returns the named collection's committed manifest with
// the WAL head it was committed under; tailing from (head.Epoch, 0) replays
// exactly the mutations the manifest lacks. A collection whose manifest is
// not folded yet — seed documents live outside it — is folded first.
func (st *Store) ReplicaManifest(coll string) (catalog.Manifest, WALPosition, error) {
	lc, err := st.coll(coll, false, nil)
	if err == nil {
		lc.mu.Lock()
		folded := lc.man.Folded
		lc.mu.Unlock()
		if !folded {
			_, err = st.Compact(coll)
		}
	}
	if err != nil {
		return catalog.Manifest{}, WALPosition{}, err
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.man.Manifest, lc.posLocked(), nil
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

// Install replaces a collection's live document set with a primary's
// manifest m. A document whose id and sum match a file the collection
// already holds keeps that file and its open index; every other file is
// read from fetch, checked against its sum and written under this store's
// next number, then opened. The follower's manifest — folded, naming its
// own numbers with the primary's sums — is committed like a fold's, which
// truncates the WAL, so the store then holds exactly m's documents. It
// returns the number of files fetched. Options or a spec that differ from
// this store's fail before anything is fetched, and a file whose digest
// differs from its sum is never installed.
func (st *Store) Install(coll string, m *catalog.Manifest, fetch func(catalog.ManifestDoc) (io.ReadCloser, error)) (int, error) {
	if st.closed.Load() {
		return 0, ErrClosed
	}
	spec, err := m.Validate()
	if err != nil {
		return 0, fmt.Errorf("ingest: manifest of %q: %w", coll, err)
	}
	// Indexes built under other options would silently break the
	// bit-identical-results guarantee.
	if m.TauMin != st.opts.Catalog.TauMin {
		return 0, fmt.Errorf("ingest: primary taumin %g differs from follower taumin %g", m.TauMin, st.opts.Catalog.TauMin)
	}
	if core.EffectiveLongCap(m.LongCap) != core.EffectiveLongCap(st.opts.Catalog.LongCap) {
		return 0, fmt.Errorf("ingest: primary longcap %d differs from follower longcap %d", m.LongCap, st.opts.Catalog.LongCap)
	}
	lc, err := st.coll(coll, true, &spec)
	if err != nil {
		return 0, err
	}
	// A local collection created with another spec (a stale manifest, or a
	// follower configured differently) would split the collection across
	// representations or error bounds: fail loudly instead.
	if err := lc.checkBackend(&spec); err != nil {
		return 0, err
	}
	lc.compactMu.Lock()
	defer lc.compactMu.Unlock()
	// Identity is (id, sum): file numbers are local to one directory.
	have := make(map[[2]string]core.Backend, len(lc.files))
	for ix, d := range lc.files {
		if d.Sum != "" {
			have[[2]string{d.ID, d.Sum}] = ix
		}
	}
	docs := make([]catalog.ManifestDoc, len(m.Docs))
	live := make(map[string]core.Backend, len(m.Docs))
	// Files fetched by an Install that fails stay unnamed, and the next
	// fold, Install or Open sweeps them.
	fetched := catalog.Manifest{Spec: m.Spec, TauMin: m.TauMin, LongCap: m.LongCap}
	for i, d := range m.Docs {
		if ix := have[[2]string{d.ID, d.Sum}]; ix != nil {
			docs[i], live[d.ID] = lc.files[ix], ix
			continue
		}
		docs[i] = catalog.ManifestDoc{ID: d.ID, File: lc.next}
		if docs[i].Sum, err = st.fetchFile(coll, lc.next, d, fetch); err != nil {
			return 0, err
		}
		lc.next++
		fetched.Docs = append(fetched.Docs, docs[i])
	}
	fetched.Next = lc.next
	err = catalog.SyncDir(catalog.IxDir(st.opts.Dir, coll))
	var ixs []core.Backend
	if err == nil {
		ixs, _, err = catalog.OpenManifest(st.opts.Dir, coll, &fetched, spec, st.opts.Catalog)
	}
	if err != nil {
		return 0, fmt.Errorf("ingest: collection %q: %w", coll, err)
	}
	for i, d := range fetched.Docs {
		live[d.ID] = ixs[i]
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	nm := lc.man
	nm.TauMin, nm.LongCap = st.opts.Catalog.TauMin, st.opts.Catalog.LongCap
	nm.Epoch, nm.Next, nm.Folded, nm.Docs = nm.Epoch+1, lc.next, true, docs
	lc.gen++
	if err := lc.foldToLocked(nm, live); err != nil {
		if lc.man.Epoch != nm.Epoch { // not committed: nothing serves ixs
			for _, ix := range ixs {
				_ = core.CloseBackend(ix)
			}
		}
		return 0, err
	}
	return len(fetched.Docs), nil
}

// fetchFile writes the primary's file d, read from fetch, as this store's
// file n of coll and returns its sum, which must equal d's when d has one.
func (st *Store) fetchFile(coll string, n uint64, d catalog.ManifestDoc, fetch func(catalog.ManifestDoc) (io.ReadCloser, error)) (string, error) {
	body, err := fetch(d)
	if err != nil {
		return "", err
	}
	defer body.Close()
	path := catalog.IxPath(st.opts.Dir, coll, n)
	sum, err := catalog.WriteSynced(path, bufio.NewReader(body))
	if err == nil && d.Sum != "" && sum != d.Sum {
		os.Remove(path)
		err = fmt.Errorf("ingest: collection %q: file %d of %q has sum %s, not %s", coll, d.File, d.ID, sum, d.Sum)
	}
	return sum, err
}
