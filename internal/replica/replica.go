// Package replica is the log-shipping replication layer: it lets read
// replicas of the ustridxd serving tier tail a primary's write-ahead logs
// over HTTP and serve bit-identical query results.
//
// The primary side (Feed) exposes two resources per collection:
//
//   - the WAL stream: whole log frames addressed by (epoch, byte offset),
//     exactly the bytes internal/ingest appends. The epoch is bumped
//     whenever the log's byte history is invalidated (compaction, torn-tail
//     repair), so an (epoch, offset) pair names one immutable byte range
//     forever;
//   - the snapshot: the collection's committed manifest (JSON) and its
//     epoch, naming immutable index files the file resource serves by
//     number. It is consistent with position (epoch, 0): that epoch's WAL
//     holds exactly what the manifest lacks.
//
// The follower side (Follower) discovers the primary's collections, fetches
// a snapshot for each and installs it into its own ingest.Store
// (Store.Install): files whose (id, sum) its own manifest already names are
// kept, open, and only the others are copied, each checked against its
// SHA-256. It then tails the WAL stream from (epoch, 0) — decoding frames
// with ingest.ScanWAL and applying the records batch by batch through the
// apply-without-logging path. A follower that falls off the stream (primary
// compacted, primary restarted after a crash, arbitrary network failure)
// re-bootstraps from a fresh snapshot, which copies only the files it
// lacks and builds no index.
//
// Invariants:
//
//   - frames returned by the feed always end on a record boundary, so a
//     follower never buffers partial frames across polls;
//   - tailing from a snapshot's (epoch, 0) observes exactly the mutations
//     its manifest lacks (records it already covers replay idempotently);
//   - applying the same final document set yields bit-identical
//     Search/TopK/Count answers on primary and follower (both are
//     equivalent to a static catalog over that set).
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/catalog"
	"repro/internal/ingest"
)

// DefaultMaxChunkBytes bounds one WAL feed response (before the
// whole-first-frame guarantee, which may exceed it for oversized records).
const DefaultMaxChunkBytes = 1 << 20

// WALChunk is the JSON body answering a WAL feed request. Frames holds raw
// log frames (base64 over the wire) starting at From in epoch Epoch;
// Committed and Records describe the primary's current committed head, so a
// caught-up follower still learns how far behind it is.
type WALChunk struct {
	Collection string `json:"collection"`
	Epoch      uint64 `json:"epoch"`
	From       int64  `json:"from"`
	Committed  int64  `json:"committed"`
	Records    int64  `json:"records"`
	Frames     []byte `json:"frames,omitempty"`
	// SnapshotRequired tells the follower its (epoch, from) position does
	// not name live history — the log was compacted or repaired since — and
	// it must re-bootstrap from a snapshot.
	SnapshotRequired bool `json:"snapshot_required,omitempty"`
}

// Feed is the primary-side replication surface over an ingest store.
type Feed struct {
	st *ingest.Store
	// MaxChunkBytes bounds one WAL response; 0 means DefaultMaxChunkBytes.
	MaxChunkBytes int
}

// NewFeed builds the feed over a primary's store.
func NewFeed(st *ingest.Store) *Feed { return &Feed{st: st} }

// WAL answers one feed poll: frames from (epoch, from), or a
// snapshot-required signal when that position is not live history. Unknown
// collections and a closed store surface as the store's sentinel errors.
func (f *Feed) WAL(coll string, epoch uint64, from int64) (*WALChunk, error) {
	max := f.MaxChunkBytes
	if max <= 0 {
		max = DefaultMaxChunkBytes
	}
	frames, pos, err := f.st.ReadWAL(coll, from, max)
	if err != nil {
		return nil, err
	}
	chunk := &WALChunk{
		Collection: coll,
		Epoch:      pos.Epoch,
		From:       from,
		Committed:  pos.Offset,
		Records:    pos.Records,
	}
	if epoch != pos.Epoch || from < 0 || from > pos.Offset {
		chunk.SnapshotRequired = true
		return chunk, nil
	}
	chunk.Frames = frames
	return chunk, nil
}

// Snapshot is the JSON body answering a snapshot request: a collection's
// committed manifest, which names its index files, and the epoch it was
// committed under. A follower installing it tails from (Epoch, 0);
// Committed and Records describe the primary's WAL head at capture, so a
// freshly bootstrapped follower already knows how far it has to tail.
type Snapshot struct {
	Collection string           `json:"collection"`
	Epoch      uint64           `json:"epoch"`
	Committed  int64            `json:"committed"`
	Records    int64            `json:"records"`
	Manifest   catalog.Manifest `json:"manifest"`
}

// Snapshot captures the bootstrap image of one collection.
func (f *Feed) Snapshot(coll string) (*Snapshot, error) {
	m, pos, err := f.st.ReplicaManifest(coll)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Collection: coll, Epoch: pos.Epoch, Committed: pos.Offset, Records: pos.Records, Manifest: m}, nil
}

// File opens index file n of a collection, as a snapshot names it. A file a
// later fold unlinked fails with an error wrapping fs.ErrNotExist.
func (f *Feed) File(coll string, n uint64) (*os.File, error) {
	if _, ok := f.st.Get(coll); !ok {
		return nil, fmt.Errorf("%w: %q", ingest.ErrUnknownCollection, coll)
	}
	return os.Open(catalog.IxPath(f.st.Options().Dir, coll, n))
}

// ErrPrimaryTooOld reports a snapshot body that is not JSON: the primary
// predates manifest replication and must be upgraded first.
var ErrPrimaryTooOld = errors.New("replica: the primary's snapshot is not a manifest; upgrade the primary")

// decodeSnapshot reads the snapshot of coll from a response body.
func decodeSnapshot(coll string, body io.Reader) (*Snapshot, error) {
	var snap Snapshot
	if err := json.NewDecoder(body).Decode(&snap); err != nil {
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) {
			return nil, fmt.Errorf("%w (%v)", ErrPrimaryTooOld, err)
		}
		return nil, fmt.Errorf("replica: decoding snapshot of %q: %w", coll, err)
	}
	return &snap, nil
}
