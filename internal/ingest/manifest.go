package ingest

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ustring"
)

// manifest is a collection's catalog.Manifest — naming its folded documents'
// index files, which carry their sources and so are the checkpoint — plus
// the replication epoch and fold flag. Its rename is a fold's commit point:
// write the files live indexes lack, rename the manifest, truncate the WAL,
// unlink the files no longer named; Open sweeps what a crash left.
type manifest struct {
	catalog.Manifest
	Epoch uint64 `json:"epoch"` // replication epoch (see wal.go)
	// Folded marks Docs as a fold's live set, which supersedes a seed
	// catalog's documents.
	Folded bool `json:"folded"`
}

// commitLocked durably replaces the collection's manifest with m.
func (lc *liveColl) commitLocked(m manifest) error {
	if err := catalog.WriteManifest(catalog.ManifestPath(lc.store.opts.Dir, lc.name), &m); err != nil {
		return fmt.Errorf("ingest: collection %q: committing manifest: %w", lc.name, err)
	}
	lc.man = m
	return nil
}

// setEpochLocked durably moves the epoch forward to next; epochs never
// regress. It must complete before the log bytes it invalidates are
// touched: a crash after the bump only costs followers a spurious
// re-bootstrap, the reverse order could hand them recycled offsets.
func (lc *liveColl) setEpochLocked(next uint64) error {
	if next <= lc.man.Epoch {
		return nil
	}
	m := lc.man
	m.Epoch = next
	return lc.commitLocked(m)
}

// writeFiles returns the manifest entries of a live set in id order,
// writing the next numbered file for each index without one, and syncs
// <name>.ix/. Only Open and the compactMu holder call it.
func (lc *liveColl) writeFiles(live map[string]core.Backend) ([]catalog.ManifestDoc, error) {
	dir := lc.store.opts.Dir
	ids := slices.Sorted(maps.Keys(live))
	docs := make([]catalog.ManifestDoc, len(ids))
	for i, id := range ids {
		d, ok := lc.files[live[id]]
		if !ok {
			d = catalog.ManifestDoc{ID: id, File: lc.next}
			var err error
			if d.Sum, err = catalog.WriteSynced(catalog.IxPath(dir, lc.name, d.File), live[id]); err != nil {
				return nil, err
			}
			lc.files[live[id]], lc.next = d, lc.next+1
		}
		docs[i] = d
	}
	return docs, catalog.SyncDir(catalog.IxDir(dir, lc.name))
}

// foldToLocked commits m, a fold's manifest naming the files of live, as
// the collection's state: it truncates the WAL m covers, unlinks the files
// m no longer names and publishes live as folded. A failed truncate leaves
// the in-memory state alone; the manifest already covers the log, and
// replaying it is idempotent. A View still mapping an unlinked file keeps
// reading it, and Open sweeps any file a failure here leaves.
func (lc *liveColl) foldToLocked(m manifest, live map[string]core.Backend) error {
	if err := lc.commitLocked(m); err != nil {
		return err
	}
	if err := lc.wal.reset(); err != nil {
		return err
	}
	lc.files = make(map[core.Backend]catalog.ManifestDoc, len(m.Docs))
	for _, d := range m.Docs {
		lc.files[live[d.ID]] = d
	}
	_ = catalog.Sweep(lc.store.opts.Dir, lc.name, &m.Manifest)
	lc.live = live
	lc.foldLocked()
	return nil
}

// openFolded opens the manifest's index files into lc.live with the
// catalog's opener and removes every file of <name>.ix/ the manifest does
// not name. An unreadable file, or one holding another spec or τmin, fails
// Open loudly: the document exists nowhere else. When the store's τmin or
// long cap differ from the manifest's, each document is queued in pending
// for a rebuild from its source instead.
func (st *Store) openFolded(lc *liveColl, pending map[string]*ustring.String) error {
	m := &lc.man.Manifest
	ixs, _, err := catalog.OpenManifest(st.opts.Dir, lc.name, m, lc.spec, st.opts.Catalog)
	if err != nil {
		return fmt.Errorf("ingest: collection %q: %w", lc.name, err)
	}
	rebuild := m.TauMin != st.opts.Catalog.TauMin ||
		core.EffectiveLongCap(m.LongCap) != core.EffectiveLongCap(st.opts.Catalog.LongCap)
	for i, d := range m.Docs {
		if rebuild {
			pending[d.ID] = ixs[i].Source()
			_ = core.CloseBackend(ixs[i])
			continue
		}
		lc.live[d.ID] = ixs[i]
		lc.files[ixs[i]] = d
	}
	lc.remapped = len(lc.files)
	return catalog.Sweep(st.opts.Dir, lc.name, m)
}
