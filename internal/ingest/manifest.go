package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/ustring"
)

// A collection's durable state is its WAL, one immutable index file per
// folded document under <name>.ix/ — each carries its document's source, so
// the files are the checkpoint — and <name>.manifest naming them. The
// manifest is only ever replaced whole (writeDurable), so its rename is the
// single commit point of a fold: write the files live indexes lack, rename a
// manifest naming them, truncate the WAL, unlink the files no longer named.
// Open removes files a crash left unnamed. File names derive from numbers
// (ixPath), so a manifest can never name a path outside <name>.ix/.
type manifest struct {
	Spec    string  `json:"spec"`    // encoded backend spec, fixed at creation
	TauMin  float64 `json:"tau_min"` // τmin and long cap of the files
	LongCap int     `json:"long_cap"`
	Epoch   uint64  `json:"epoch"` // replication epoch (see wal.go)
	Next    uint64  `json:"next"`  // next unused file number
	// Docs is the folded set in id order; Folded marks it as a fold's live
	// set, which supersedes a seed catalog's documents.
	Docs   []manifestDoc `json:"docs"`
	Folded bool          `json:"folded"`
}

// manifestDoc names one folded document's index file by number.
type manifestDoc struct {
	ID   string `json:"id"`
	File uint64 `json:"file"`
}

func (st *Store) manifestPath(name string) string {
	return filepath.Join(st.opts.Dir, name+".manifest")
}

func (st *Store) ixDir(name string) string { return filepath.Join(st.opts.Dir, name+".ix") }

func (st *Store) ixPath(name string, n uint64) string {
	return filepath.Join(st.ixDir(name), strconv.FormatUint(n, 10)+".idx")
}

// readManifest loads and validates a manifest and decodes its spec; a
// missing file returns a nil manifest. Every write is atomic, so an invalid
// file means external damage and fails loudly rather than restarting empty.
func readManifest(path string) (*manifest, core.BackendSpec, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, core.BackendSpec{}, nil
	}
	var m manifest
	var spec core.BackendSpec
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err == nil {
		spec, err = m.validate()
	}
	if err != nil {
		return nil, core.BackendSpec{}, fmt.Errorf("ingest: manifest %s: %w", path, err)
	}
	return &m, spec, nil
}

// validate returns the decoded spec after checking that the options are in
// range, the ids valid, sorted and unique, and the file numbers unique and
// below the counter.
func (m *manifest) validate() (core.BackendSpec, error) {
	spec, err := core.DecodeBackendSpec(m.Spec)
	if err != nil {
		return spec, err
	}
	if !(m.TauMin > 0 && m.TauMin <= 1) || m.LongCap < 0 {
		return spec, fmt.Errorf("bad τmin %v or long cap %d", m.TauMin, m.LongCap)
	}
	files := make(map[uint64]bool, len(m.Docs))
	for i, d := range m.Docs {
		if err := validateDocID(d.ID); err != nil {
			return spec, err
		}
		if i > 0 && d.ID <= m.Docs[i-1].ID {
			return spec, fmt.Errorf("document %q out of order", d.ID)
		}
		if d.File >= m.Next || files[d.File] {
			return spec, fmt.Errorf("document %q: file %d reused or not below %d", d.ID, d.File, m.Next)
		}
		files[d.File] = true
	}
	return spec, nil
}

// commitLocked durably replaces the collection's manifest with m.
func (lc *liveColl) commitLocked(m manifest) error {
	raw, err := json.Marshal(m)
	if err == nil {
		err = writeDurable(lc.store.manifestPath(lc.name), raw)
	}
	if err != nil {
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

// writeDurable replaces path with data: temp file, fsync, rename, directory
// fsync. A crash leaves the old file or the complete new one, never a torn
// file that would load as a regressed epoch or another spec. It is the one
// writer of every metadata file.
func writeDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	os.Remove(tmp) // a crash may have left one behind
	if err := writeSynced(tmp, bytes.NewReader(data)); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ingest: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// writeSynced creates path, which must not exist — an index file is never
// rewritten in place, because a mapped View may be reading it — fills it
// from src and fsyncs it. A failed write removes the partial file.
func writeSynced(path string, src io.WriterTo) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	_, err = src.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("ingest: writing %s: %w", path, err)
	}
	return nil
}

// writeFiles returns the manifest entries of a live set in id order,
// writing the next numbered file for each index without one, and syncs
// <name>.ix/. Only Open and the compactMu holder call it.
func (lc *liveColl) writeFiles(live map[string]core.Backend) ([]manifestDoc, error) {
	ids := slices.Sorted(maps.Keys(live))
	docs := make([]manifestDoc, len(ids))
	for i, id := range ids {
		n, ok := lc.files[live[id]]
		if !ok {
			n = lc.next
			if err := writeSynced(lc.store.ixPath(lc.name, n), live[id]); err != nil {
				return nil, err
			}
			lc.files[live[id]], lc.next = n, n+1
		}
		docs[i] = manifestDoc{ID: id, File: n}
	}
	return docs, syncDir(lc.store.ixDir(lc.name))
}

// openFolded opens the manifest's index files into lc.live, mmap'd under
// Catalog.MMap, and removes every file of <name>.ix/ the manifest does not
// name. An unreadable file, or one holding another spec or τmin, fails Open
// loudly: the document exists nowhere else. When the store's τmin or long
// cap differ from the manifest's, each document is queued in pending for a
// rebuild from its source instead.
func (st *Store) openFolded(lc *liveColl, pending map[string]*ustring.String) error {
	m := lc.man
	rebuild := m.TauMin != st.opts.Catalog.TauMin ||
		effectiveLongCap(m.LongCap) != effectiveLongCap(st.opts.Catalog.LongCap)
	named := make(map[string]bool, len(m.Docs))
	for _, d := range m.Docs {
		path := st.ixPath(lc.name, d.File)
		named[filepath.Base(path)] = true
		ix, _, err := core.OpenBackendFile(path, st.opts.Catalog.MMap)
		if err == nil && (core.SpecOf(ix) != lc.spec || ix.TauMin() != m.TauMin) {
			err = fmt.Errorf("holds %s at τmin %v, not %s at τmin %v", core.SpecOf(ix), ix.TauMin(), lc.spec, m.TauMin)
		}
		if err != nil {
			return fmt.Errorf("ingest: collection %q: index file %s: %w", lc.name, path, err)
		}
		if rebuild {
			pending[d.ID] = ix.Source()
			_ = core.CloseBackend(ix)
			continue
		}
		lc.live[d.ID] = ix
		lc.files[ix] = d.File
	}
	lc.remapped = len(lc.files)
	dir := st.ixDir(lc.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		if err == nil && !named[e.Name()] {
			err = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}
