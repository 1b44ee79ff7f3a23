package ingest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ustring"
)

// legacyCheckpoint is the old <name>.ckpt: document IDs[i] has content
// Docs[i].
type legacyCheckpoint struct {
	Format int
	IDs    []string
	Docs   []*ustring.String
}

// readCheckpoint loads a legacy checkpoint; a missing file returns nil, an
// unreadable one an error.
func readCheckpoint(path string) (*legacyCheckpoint, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	var ck legacyCheckpoint
	if err == nil {
		defer f.Close()
		err = gob.NewDecoder(f).Decode(&ck)
	}
	if err == nil && (ck.Format != 1 || len(ck.IDs) != len(ck.Docs)) {
		err = fmt.Errorf("format %d with %d ids and %d documents", ck.Format, len(ck.IDs), len(ck.Docs))
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: reading checkpoint %s: %w", path, err)
	}
	return &ck, nil
}

// readBackendSidecar returns the spec a legacy <name>.backend records, or
// spec when there is none. An empty or invalid sidecar is an error.
func readBackendSidecar(path string, spec core.BackendSpec) (core.BackendSpec, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return spec, nil
	}
	if err == nil {
		spec, err = core.DecodeBackendSpec(strings.TrimSpace(string(raw)))
	}
	if err != nil {
		return spec, fmt.Errorf("ingest: backend sidecar %s: %w", path, err)
	}
	return spec, nil
}

// loadEpoch reads a legacy <name>.wal.epoch; a missing or unreadable file
// is epoch 0.
func loadEpoch(path string) uint64 {
	b, _ := os.ReadFile(path)
	n, err := strconv.ParseUint(string(bytes.TrimSpace(b)), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// convertLegacy converts a collection in the layout before manifests —
// folded content in a gob <name>.ckpt, built indexes in a <name>.ixc/ cache
// paired to it by a nonce, spec and epoch in the <name>.backend and
// <name>.wal.epoch sidecars — once, and reports whether it converted one,
// with the decoded spec; the manifest is committed to lc. It builds the
// checkpoint's documents with the recorded spec (spec when none is
// recorded), ignoring the old cache, writes their index files and a
// manifest at the old epoch, and only then removes the old files, so a
// crash before the rename leaves the old layout intact.
func (st *Store) convertLegacy(lc *liveColl, spec core.BackendSpec) (bool, core.BackendSpec, error) {
	base := filepath.Join(st.opts.Dir, lc.name)
	old := []string{base + ".ckpt", base + ".backend", base + ".wal.epoch", base + ".ixc"}
	if !slices.ContainsFunc(old, func(p string) bool { _, err := os.Stat(p); return err == nil }) {
		return false, spec, nil
	}
	spec, err := readBackendSidecar(old[1], spec)
	var ck *legacyCheckpoint
	if err == nil {
		ck, err = readCheckpoint(old[0])
	}
	pending := make(map[string]*ustring.String)
	for i := 0; ck != nil && i < len(ck.IDs); i++ {
		pending[ck.IDs[i]] = ck.Docs[i]
	}
	var built map[string]core.Backend
	if err == nil {
		built, err = st.buildDocs(pending, spec)
	}
	// No manifest names a file of <name>.ix/ yet: a crashed conversion's
	// files go before numbering starts again from 0.
	if err == nil {
		err = catalog.Sweep(st.opts.Dir, lc.name, &catalog.Manifest{})
	}
	m := manifest{Manifest: catalog.Manifest{Spec: spec.Encode(), TauMin: st.opts.Catalog.TauMin,
		LongCap: st.opts.Catalog.LongCap}, Epoch: loadEpoch(old[2]), Folded: ck != nil}
	if err == nil {
		m.Docs, err = lc.writeFiles(built)
		m.Next = lc.next
		clear(lc.files) // Open re-opens the files; the built indexes go
	}
	if err == nil {
		err = lc.commitLocked(m)
	}
	for _, p := range old {
		if err == nil {
			err = os.RemoveAll(p)
		}
	}
	if err != nil {
		return false, spec, fmt.Errorf("ingest: converting collection %q: %w", lc.name, err)
	}
	st.opts.Logf("ingest: %s: converted %d documents at epoch %d to a manifest", lc.name, len(m.Docs), m.Epoch)
	return true, spec, nil
}
