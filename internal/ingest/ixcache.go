package ingest

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/ustring"
)

// The index cache is the zero-copy counterpart of the checkpoint: while the
// .ckpt stores document *content* (the durable source of truth), the
// <name>.ixc/ directory stores each live document's *built index* as a
// persisted file — format-4 envelopes for the compressed backend — written
// by the same compaction. A restart that finds a cache matching the
// checkpoint's nonce re-opens (and, under Options.Catalog.MMap, mmaps) the
// indexes instead of rebuilding them, so recovery cost drops from "rebuild
// every index" to "validate every envelope", and resident memory stays near
// zero until queries fault pages in.
//
// The cache is strictly optional: any mismatch — missing directory, torn
// write, different nonce/spec/options, an unreadable file — falls back to
// the historical rebuild-from-checkpoint path. Losing it can slow a restart
// but never change an answer or lose a document.

// ixCacheFormat tags the cache layout; bump on incompatible changes.
const ixCacheFormat = 1

const ixManifestName = "manifest.gob"

// ixManifest describes one collection's index cache.
type ixManifest struct {
	Format int
	// Nonce must equal the Nonce of the checkpoint written by the same
	// compaction; see the checkpoint type.
	Nonce uint64
	// TauMin and LongCap are the construction options the indexes were
	// built with; a store opened with different options rebuilds instead.
	TauMin  float64
	LongCap int
	// Spec is the collection's encoded backend spec.
	Spec string
	// Docs is the number of doc files; they are named ixcDocName(0..Docs-1)
	// and parallel the checkpoint's sorted IDs.
	Docs int
}

func (st *Store) ixcPath(name string) string { return filepath.Join(st.opts.Dir, name+".ixc") }

func ixcDocName(i int) string { return fmt.Sprintf("doc%06d.idx", i) }

// writeIndexCache writes every index to a temporary directory next to the
// final path and syncs the files; the caller renames the directory into
// place once the paired checkpoint is installed. Returns the temporary
// path.
func (st *Store) writeIndexCache(name string, nonce uint64, spec core.BackendSpec, ixs []core.Backend) (string, error) {
	dir := st.ixcPath(name)
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", fmt.Errorf("ingest: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("ingest: %w", err)
	}
	writeFile := func(path string, write func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = write(f)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	for i, ix := range ixs {
		err := writeFile(filepath.Join(tmp, ixcDocName(i)), func(f *os.File) error {
			_, err := ix.WriteTo(f)
			return err
		})
		if err != nil {
			os.RemoveAll(tmp)
			return "", fmt.Errorf("ingest: writing index cache for %q: %w", name, err)
		}
	}
	err := writeFile(filepath.Join(tmp, ixManifestName), func(f *os.File) error {
		return gob.NewEncoder(f).Encode(ixManifest{
			Format: ixCacheFormat, Nonce: nonce,
			TauMin: st.opts.Catalog.TauMin, LongCap: st.opts.Catalog.LongCap,
			Spec: spec.Encode(), Docs: len(ixs),
		})
	})
	if err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("ingest: writing index cache for %q: %w", name, err)
	}
	return tmp, nil
}

// openIndexCache re-opens the collection's cached indexes into lc.live,
// removing re-mapped documents from pending (they no longer need a
// rebuild), and returns how many documents it served. Any mismatch returns
// 0 with pending untouched — the caller rebuilds as before.
func (st *Store) openIndexCache(lc *liveColl, ck *checkpoint, pending map[string]*ustring.String) int {
	dir := st.ixcPath(lc.name)
	mf, err := os.Open(filepath.Join(dir, ixManifestName))
	if err != nil {
		return 0
	}
	var m ixManifest
	err = gob.NewDecoder(mf).Decode(&m)
	mf.Close()
	if err != nil || m.Format != ixCacheFormat ||
		m.Nonce == 0 || m.Nonce != ck.Nonce ||
		m.TauMin != st.opts.Catalog.TauMin ||
		effectiveLongCap(m.LongCap) != effectiveLongCap(st.opts.Catalog.LongCap) ||
		m.Docs != len(ck.IDs) {
		st.opts.Logf("ingest: %s: index cache does not match the checkpoint; rebuilding", lc.name)
		return 0
	}
	spec, err := core.DecodeBackendSpec(m.Spec)
	if err != nil || spec != lc.spec {
		st.opts.Logf("ingest: %s: index cache built for backend %q, collection uses %s; rebuilding",
			lc.name, m.Spec, lc.spec)
		return 0
	}
	opened := make(map[string]core.Backend, m.Docs)
	bail := func(i int, err error) int {
		st.opts.Logf("ingest: %s: index cache file %s unusable (%v); rebuilding", lc.name, ixcDocName(i), err)
		for _, b := range opened {
			_ = core.CloseBackend(b)
		}
		return 0
	}
	for i, id := range ck.IDs {
		ix, _, err := core.OpenBackendFile(filepath.Join(dir, ixcDocName(i)), st.opts.Catalog.MMap)
		if err != nil {
			return bail(i, err)
		}
		if got := core.SpecOf(ix); got != spec || ix.TauMin() != m.TauMin {
			_ = core.CloseBackend(ix)
			return bail(i, fmt.Errorf("holds %s at τmin %v", got, ix.TauMin()))
		}
		opened[id] = ix
	}
	for id, ix := range opened {
		lc.live[id] = ix
		delete(pending, id)
	}
	return len(opened)
}
