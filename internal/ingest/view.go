package ingest

import (
	"sort"

	"repro/internal/catalog"
)

// View is one immutable, generation-stamped snapshot of a live collection.
// Every mutation and every compaction publishes a fresh View (copy-on-write
// pointer swap), so an in-flight query runs entirely against the snapshot it
// started with: it can never observe half of a Put, and compaction never
// blocks it.
//
// A View is a catalog.Collection over the live documents, assembled at
// publish time from their already-built indexes in the lexicographic order
// of their IDs — exactly the shape of a statically built catalog over the
// same documents. Exec, Search/TopK/Count, Estimate and the statistics are
// the collection's own, so a collection reached through any Put/Delete/
// compaction history answers queries — and counts their cost — identically
// to a static catalog over the same final document set (see the equivalence
// test). The instance id is the collection's too: every publish draws a
// fresh one, which result caches fold into their keys, so a cached result
// can never outlive the snapshot it was computed against.
type View struct {
	*catalog.Collection
	gen        uint64   // mutation generation of the owning collection
	ids        []string // document number → external id
	deltaDocs  int
	tombstones int
}

// Gen returns the owning collection's mutation generation at publish time.
func (v *View) Gen() uint64 { return v.gen }

// DeltaDocs returns how many live documents were put (or replaced) since
// the last compaction.
func (v *View) DeltaDocs() int { return v.deltaDocs }

// Tombstones returns how many documents of the last compaction have been
// deleted or replaced since.
func (v *View) Tombstones() int { return v.tombstones }

// DocID returns the external id of document number doc.
func (v *View) DocID(doc int) (string, bool) {
	if doc < 0 || doc >= len(v.ids) {
		return "", false
	}
	return v.ids[doc], true
}

// DocNumber returns the document number of an external id.
func (v *View) DocNumber(id string) (int, bool) {
	i := sort.SearchStrings(v.ids, id)
	if i < len(v.ids) && v.ids[i] == id {
		return i, true
	}
	return 0, false
}
