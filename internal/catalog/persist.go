package catalog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// A collection's on-disk form — the one Save and Load use, and the ingest
// store's — is <dir>/<name>.manifest naming one immutable index file per
// document under <dir>/<name>.ix/; each file carries its document's source.
// The manifest is only ever replaced whole (WriteManifest), so its rename
// is the single commit point of a write: write fresh files (WriteSynced,
// never over an existing one, because a mapped collection may be reading
// it), rename a manifest naming them, unlink the files no longer named
// (Sweep). File names derive from numbers (IxPath), so a manifest can never
// name a path outside <name>.ix/.
type Manifest struct {
	Spec    string  `json:"spec"`    // encoded backend spec
	TauMin  float64 `json:"tau_min"` // τmin and long cap of the files
	LongCap int     `json:"long_cap"`
	Next    uint64  `json:"next"` // next unused file number
	// Docs names the documents' files in id order, which is document order.
	Docs []ManifestDoc `json:"docs"`
}

// ManifestDoc names one document's index file by number. Sum, the hex
// SHA-256 WriteSynced returned, identifies the file across directories for
// replication; no open path reads it, and older manifests carry none.
type ManifestDoc struct {
	ID   string `json:"id"`
	File uint64 `json:"file"`
	Sum  string `json:"sum,omitempty"`
}

// ManifestRecord is a *Manifest or a record embedding one, whose extra
// fields ride along under their own keys (the ingest store adds its
// replication epoch and fold flag).
type ManifestRecord interface{ manifest() *Manifest }

func (m *Manifest) manifest() *Manifest { return m }

// ManifestPath is the manifest of collection name under dir.
func ManifestPath(dir, name string) string { return filepath.Join(dir, name+".manifest") }

// IxDir is the directory of collection name's index files under dir.
func IxDir(dir, name string) string { return filepath.Join(dir, name+".ix") }

// IxPath is index file n of collection name under dir.
func IxPath(dir, name string, n uint64) string {
	return filepath.Join(IxDir(dir, name), strconv.FormatUint(n, 10)+".idx")
}

// DocID names document i of a collection without ids of its own (a saved
// catalog collection, or one seeding an ingest store). Zero-padding keeps
// the id order equal to the document order.
func DocID(i int) string { return fmt.Sprintf("doc-%06d", i) }

// MaxDocIDBytes bounds document ids.
const MaxDocIDBytes = 512

// CheckDocID rejects unusable document ids.
func CheckDocID(id string) error {
	if id == "" {
		return errors.New("empty")
	}
	if len(id) > MaxDocIDBytes {
		return fmt.Errorf("%d bytes exceeds the %d limit", len(id), MaxDocIDBytes)
	}
	return nil
}

// ReadManifest reads the manifest at path into m, validates it and returns
// its decoded spec. A missing file fails with an error wrapping
// fs.ErrNotExist; every write is atomic, so any other failure means
// external damage.
func ReadManifest(path string, m ManifestRecord) (spec core.BackendSpec, err error) {
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, m)
	}
	if err == nil {
		spec, err = m.manifest().Validate()
	}
	if err != nil {
		return spec, fmt.Errorf("catalog: manifest %s: %w", path, err)
	}
	return spec, nil
}

// Validate returns the decoded spec after checking that the options are in
// range, the ids valid, sorted and unique, the file numbers unique and
// below the counter, and every sum empty or a hex SHA-256.
func (m *Manifest) Validate() (core.BackendSpec, error) {
	spec, err := core.DecodeBackendSpec(m.Spec)
	if err != nil {
		return spec, err
	}
	if !(m.TauMin > 0 && m.TauMin <= 1) || m.LongCap < 0 {
		return spec, fmt.Errorf("bad τmin %v or long cap %d", m.TauMin, m.LongCap)
	}
	files := make(map[uint64]bool, len(m.Docs))
	for i, d := range m.Docs {
		if err := CheckDocID(d.ID); err != nil {
			return spec, fmt.Errorf("document id %q: %w", d.ID, err)
		}
		if i > 0 && d.ID <= m.Docs[i-1].ID {
			return spec, fmt.Errorf("document %q out of order", d.ID)
		}
		if d.File >= m.Next || files[d.File] {
			return spec, fmt.Errorf("document %q: file %d reused or not below %d", d.ID, d.File, m.Next)
		}
		if raw, err := hex.DecodeString(d.Sum); err != nil || (d.Sum != "" && len(raw) != sha256.Size) {
			return spec, fmt.Errorf("document %q: bad sum %q", d.ID, d.Sum)
		}
		files[d.File] = true
	}
	return spec, nil
}

// WriteManifest durably replaces the manifest at path with m: temp file,
// fsync, rename, directory fsync. A crash leaves the old manifest or the
// complete new one, never a torn file.
func WriteManifest(path string, m ManifestRecord) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	tmp := path + ".tmp"
	os.Remove(tmp) // a crash may have left one behind
	if _, err := WriteSynced(tmp, bytes.NewReader(raw)); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("catalog: %w", err)
	}
	return SyncDir(filepath.Dir(path))
}

// WriteSynced creates path, which must not exist — an index file is never
// rewritten in place, because a mapped collection may be reading it — fills
// it from src and fsyncs it, returning the hex SHA-256 of the bytes written,
// digested in the same pass. A failed write removes the partial file.
func WriteSynced(path string, src io.WriterTo) (sum string, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	h := sha256.New()
	_, err = src.WriteTo(io.MultiWriter(f, h))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", fmt.Errorf("catalog: writing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// SyncDir fsyncs a directory so its just-created or renamed entries are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("catalog: syncing %s: %w", dir, err)
	}
	return nil
}

// Sweep removes every entry of <name>.ix/ that m does not name — what a
// crash, a failed write or a superseding commit left behind — creating the
// directory when it is missing.
func Sweep(dir, name string, m *Manifest) error {
	named := make(map[string]bool, len(m.Docs))
	for _, d := range m.Docs {
		named[filepath.Base(IxPath(dir, name, d.File))] = true
	}
	ixDir := IxDir(dir, name)
	err := os.MkdirAll(ixDir, 0o755)
	var entries []os.DirEntry
	if err == nil {
		entries, err = os.ReadDir(ixDir)
	}
	for _, e := range entries {
		if err == nil && !named[e.Name()] {
			err = os.RemoveAll(filepath.Join(ixDir, e.Name()))
		}
	}
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// OpenManifest opens the index files m names, in m.Docs order, on a pool of
// opts.Workers, mmap'd under opts.MMap. Every file must hold spec at
// m.TauMin: one of another representation, ε or threshold was written
// under other options. On any failure it closes everything it opened and
// names the file. skips counts the files that skipped the decode path.
func OpenManifest(dir, name string, m *Manifest, spec core.BackendSpec, opts Options) (ixs []core.Backend, skips int, err error) {
	ixs = make([]core.Backend, len(m.Docs))
	var skipped atomic.Int64
	err = RunPool(opts.Workers, len(m.Docs), func(i int) error {
		path := IxPath(dir, name, m.Docs[i].File)
		ix, skip, err := core.OpenBackendFile(path, opts.MMap)
		if err == nil && (core.SpecOf(ix) != spec || ix.TauMin() != m.TauMin) {
			err = fmt.Errorf("holds %s at τmin %v, not %s at τmin %v", core.SpecOf(ix), ix.TauMin(), spec, m.TauMin)
			_ = core.CloseBackend(ix)
		}
		if err != nil {
			return fmt.Errorf("index file %s: %w", path, err)
		}
		if skip {
			skipped.Add(1)
		}
		ixs[i] = ix
		return nil
	})
	if err != nil {
		closeAll(ixs)
		return nil, 0, err
	}
	return ixs, int(skipped.Load()), nil
}

// closeAll releases every non-nil backend of ixs.
func closeAll(ixs []core.Backend) {
	for _, ix := range ixs {
		if ix != nil {
			_ = core.CloseBackend(ix)
		}
	}
}

// SafeName reports whether a collection name is usable as an on-disk name —
// every file of the layout and the ingest layer's WAL embed the name, so
// path separators and hidden-file prefixes (which Load skips) are rejected.
func SafeName(name string) error {
	if name == "" || strings.HasPrefix(name, ".") ||
		strings.ContainsAny(name, string(filepath.Separator)+"/") {
		return fmt.Errorf("catalog: collection name %q is not usable on disk", name)
	}
	return nil
}

// Save writes every collection under dir, so a later Load skips the
// transformation cost — the dominant share of construction time at low
// τmin. Each collection is written like an ingest fold (see Manifest),
// numbering its fresh files from the existing manifest's next: a crash
// leaves the previous cache loadable, and no file a loaded — possibly
// mapped — collection serves is rewritten. A collection evicted under the
// HotCollections bound exists only in the directory it was evicted from:
// it is kept when that is dir and copied file for file otherwise.
// Collections no longer in the catalog are removed, so a stale cache cannot
// resurrect deleted data. After a successful Save, evicted collections
// fault back in from dir.
func (c *Catalog) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	c.mu.RLock()
	from := c.cacheDir
	saved, err := c.saveLocked(from, dir)
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	// A saved catalog is also an evictable one: its collections now have
	// somewhere to fault back in from.
	c.mu.Lock()
	if c.cacheDir == from {
		c.cacheDir, c.saved = dir, saved
	}
	c.mu.Unlock()
	return nil
}

// saveLocked is Save's body under c.mu's read lock; from is the directory
// cold collections were evicted to. It returns the ids of the collections
// written, by name.
func (c *Catalog) saveLocked(from, dir string) (map[string]uint64, error) {
	if err := c.pruneCache(dir); err != nil {
		return nil, err
	}
	saved := make(map[string]uint64, len(c.colls))
	for name, col := range c.colls {
		if err := SafeName(name); err != nil {
			return nil, err
		}
		m := Manifest{Spec: col.spec.Encode(), TauMin: col.tauMin, LongCap: col.longCap,
			Docs: make([]ManifestDoc, col.docs)}
		for i := range m.Docs {
			m.Docs[i].ID = DocID(i)
		}
		ixs := col.DocIndexes()
		err := writeCollection(dir, name, m, func(i int, path string) (string, error) {
			return WriteSynced(path, ixs[i])
		})
		if err != nil {
			return nil, fmt.Errorf("catalog: collection %q: %w", name, err)
		}
		saved[name] = col.id
	}
	if len(c.cold) == 0 || sameDir(from, dir) {
		return saved, nil
	}
	for name := range c.cold {
		if err := copyCollection(from, dir, name); err != nil {
			return nil, fmt.Errorf("catalog: evicted collection %q: %w", name, err)
		}
	}
	return saved, nil
}

// sameDir reports whether a and b name one existing directory.
func sameDir(a, b string) bool {
	sa, err1 := os.Stat(a)
	sb, err2 := os.Stat(b)
	return err1 == nil && err2 == nil && os.SameFile(sa, sb)
}

// copyCollection writes collection name, as saved under from, into dir.
func copyCollection(from, dir, name string) error {
	var m Manifest
	if _, err := ReadManifest(ManifestPath(from, name), &m); err != nil {
		return err
	}
	src := slices.Clone(m.Docs)
	return writeCollection(dir, name, m, func(i int, path string) (string, error) {
		f, err := os.Open(IxPath(from, name, src[i].File))
		if err != nil {
			return "", fmt.Errorf("catalog: %w", err)
		}
		defer f.Close()
		return WriteSynced(path, f)
	})
}

// writeCollection writes one collection following Save's protocol: m
// carries the manifest's options and document ids, and write(i, path)
// creates document i's index file at path and returns its sum.
func writeCollection(dir, name string, m Manifest, write func(i int, path string) (string, error)) error {
	var old Manifest
	if _, err := ReadManifest(ManifestPath(dir, name), &old); err != nil {
		// An unreadable manifest names nothing reliably: start over.
		old = Manifest{}
		os.Remove(ManifestPath(dir, name))
	}
	// Files a crashed Save left unnamed go first, so that numbering from
	// next never meets an existing file.
	if err := Sweep(dir, name, &old); err != nil {
		return err
	}
	m.Next = old.Next
	for i := range m.Docs {
		sum, err := write(i, IxPath(dir, name, m.Next))
		if err != nil {
			return err
		}
		m.Docs[i].File, m.Docs[i].Sum = m.Next, sum
		m.Next++
	}
	if err := SyncDir(IxDir(dir, name)); err != nil {
		return err
	}
	if err := WriteManifest(ManifestPath(dir, name), &m); err != nil {
		return err
	}
	return Sweep(dir, name, &m)
}

// pruneCache removes the entries of collections the catalog no longer
// holds, resident or evicted — <name>.manifest with <name>.ix/ — and every
// directory of the layout before manifests, recognised by its manifest.gob
// file name alone. Unrelated entries are left alone.
func (c *Catalog) pruneCache(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	for _, e := range entries {
		var stale []string
		name, isManifest := strings.CutSuffix(e.Name(), ".manifest")
		if _, err := os.Stat(filepath.Join(dir, e.Name(), "manifest.gob")); e.IsDir() && err == nil {
			stale = []string{filepath.Join(dir, e.Name())}
		} else if _, cold := c.cold[name]; isManifest && !e.IsDir() && c.colls[name] == nil && !cold {
			stale = []string{ManifestPath(dir, name), IxDir(dir, name)}
		}
		for _, p := range stale {
			if err := os.RemoveAll(p); err != nil {
				return fmt.Errorf("catalog: pruning stale cache %q: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// Load rebuilds a catalog from a directory written by Save, one collection
// per <name>.manifest, at each manifest's τmin; opts controls sharding, the
// worker pool and mmap. Format-4 envelope files serve straight out of the
// file, gob files take the decode path. Load only reads; when a collection
// fails, the ones already loaded are closed.
func Load(dir string, opts Options) (*Catalog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	c := New(opts)
	c.cacheDir = dir
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".manifest")
		if !ok || e.IsDir() || SafeName(name) != nil {
			continue
		}
		if _, err := c.loadCollection(dir, name); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// loadCollection restores and registers one saved collection.
func (c *Catalog) loadCollection(dir, name string) (*Collection, error) {
	var m Manifest
	spec, err := ReadManifest(ManifestPath(dir, name), &m)
	if err != nil {
		return nil, err
	}
	ixs, skips, err := OpenManifest(dir, name, &m, spec, c.opts)
	if err != nil {
		return nil, fmt.Errorf("catalog: collection %q: %w", name, err)
	}
	c.decodeSkips.Add(int64(skips))
	c.skipsCounter.Add(int64(skips))
	return c.register(name, m.TauMin, m.LongCap, spec, ixs, true), nil
}
