package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/ustring"
)

// Write-ahead log file format: a sequence of self-contained records, each
//
//	[4-byte little-endian payload length][4-byte CRC-32 (IEEE) of payload][payload]
//
// where the payload is one gob-encoded WALRecord. Every record carries its
// own gob stream so any prefix of whole records is a valid log: a torn tail
// (short header, short payload, or CRC mismatch — the signature of a crash
// mid-append or of external damage) is detected on open, logged, and
// truncated away, preserving every record before it.
//
// Replication addresses records by (epoch, byte offset): the offset of a
// record is the byte position of its frame in the log file, and the epoch is
// a durable per-collection counter, kept in the collection's manifest and
// bumped whenever the file's bytes stop being append-only history — at
// compaction (the log is truncated to empty) and when a torn tail is
// dropped. An (epoch, offset) pair therefore names one immutable byte range
// forever: a follower holding a stale epoch can never misread recycled
// offsets as a continuation of the stream.

// Mutation opcodes.
const (
	// OpPut marks a WALRecord inserting or replacing one document.
	OpPut = byte('P')
	// OpDelete marks a WALRecord removing one document.
	OpDelete = byte('D')
)

// WALRecord is one logged mutation. Doc is the document *content* (not the
// built index): replay re-builds indexes with the store's current options,
// so a restart with a different construction threshold yields a consistent
// collection instead of serving mixed-threshold indexes. The same records,
// shipped over the replication feed, are applied by followers without
// re-logging.
type WALRecord struct {
	Op  byte
	ID  string
	Doc *ustring.String // nil for deletes
}

// maxWALRecord bounds a single record's payload; a length prefix beyond it
// is treated as corruption rather than allocated.
const maxWALRecord = 1 << 30

const walHeaderSize = 8

// MarshalWALRecord encodes one record as a self-contained log frame
// (length, CRC, gob payload) — the exact bytes append writes and the
// replication feed ships.
func MarshalWALRecord(rec WALRecord) ([]byte, error) {
	if rec.Op != OpPut && rec.Op != OpDelete {
		return nil, fmt.Errorf("ingest: unknown wal opcode %q", rec.Op)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		return nil, fmt.Errorf("ingest: encoding wal record: %w", err)
	}
	if payload.Len() > maxWALRecord {
		return nil, fmt.Errorf("ingest: wal record of %d bytes exceeds the %d limit", payload.Len(), maxWALRecord)
	}
	frame := make([]byte, walHeaderSize+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[walHeaderSize:], payload.Bytes())
	return frame, nil
}

// ScanWAL decodes whole records from the head of r, returning them together
// with the byte length of the longest valid record prefix. Corruption is not
// an error: the scan simply stops at the first frame that is torn, fails its
// CRC, or does not decode, so any byte stream yields the records of its
// longest valid prefix. Only real reader failures (non-EOF) are returned.
func ScanWAL(r io.Reader) (recs []WALRecord, valid int64, err error) {
	var header [walHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return recs, valid, readFailure(err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxWALRecord {
			return recs, valid, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, valid, readFailure(err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, valid, nil
		}
		var rec WALRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return recs, valid, nil
		}
		if rec.Op != OpPut && rec.Op != OpDelete {
			return recs, valid, nil
		}
		recs = append(recs, rec)
		valid += walHeaderSize + int64(length)
	}
}

// readFailure drops the errors of a clean EOF at a record boundary and of a
// torn frame, which end a scan; only real I/O failures propagate.
func readFailure(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// wal is one collection's append-only log. Callers serialise access (the
// owning liveColl's writer mutex).
type wal struct {
	f       *os.File
	path    string
	sync    bool
	records int
	bytes   int64
	// broken marks a log whose failed append could not be rolled back to a
	// record boundary; further appends are refused rather than risked after
	// garbage.
	broken bool

	// Metric handles, resolved per collection by the owning store; nil
	// handles (no registry configured) make every observation a no-op.
	appendHist    *obs.Histogram
	fsyncHist     *obs.Histogram
	appends       *obs.Counter
	appendedBytes *obs.Counter
}

// openWAL opens (creating if absent) the log at path, replays its records,
// and positions the write offset after the last whole record, truncating a
// torn or corrupt tail after bumpEpoch durably advanced the collection's
// epoch. The returned records are in append order.
func openWAL(path string, sync bool, logf func(string, ...any), bumpEpoch func() error) (_ *wal, _ []WALRecord, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	w := &wal{f: f, path: path, sync: sync}
	// Buffered reads may advance the file offset past the last whole
	// record; a torn tail re-seeks to the valid offset below.
	recs, valid, err := ScanWAL(bufio.NewReader(f))
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: reading %s: %w", path, err)
	}
	if size, err := f.Seek(0, io.SeekEnd); err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	} else if size > valid {
		logf("ingest: %s: dropping %d bytes of torn tail after %d whole records", path, size-valid, len(recs))
		// The dropped bytes may have been served to a follower before the
		// crash rolled them back; bump the epoch (durably, first) so such a
		// follower re-bootstraps instead of resuming into rewritten offsets.
		if err := bumpEpoch(); err != nil {
			return nil, nil, err
		}
		if err := f.Truncate(valid); err != nil {
			return nil, nil, fmt.Errorf("ingest: truncating torn tail of %s: %w", path, err)
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			return nil, nil, fmt.Errorf("ingest: %w", err)
		}
	}
	w.records = len(recs)
	w.bytes = valid
	return w, recs, nil
}

// append encodes and appends one record, then syncs when durability is on.
// The record is acknowledged — and the caller may expose its effects — only
// after append returns nil. On any failure the file is rolled back to the
// previous record boundary, so a rejected Put can neither corrupt the
// frames of later acknowledged records (a partial write would make replay
// stop early and drop them) nor linger in the log and replay as applied.
func (w *wal) append(rec WALRecord) error {
	if w.broken {
		return fmt.Errorf("ingest: wal %s is failed after an earlier append error", w.path)
	}
	frame, err := MarshalWALRecord(rec)
	if err != nil {
		return err
	}
	begin := time.Now()
	if _, err := w.f.Write(frame); err != nil {
		w.rollback()
		return fmt.Errorf("ingest: appending to %s: %w", w.path, err)
	}
	if w.sync {
		syncBegin := time.Now()
		if err := w.f.Sync(); err != nil {
			w.rollback()
			return fmt.Errorf("ingest: syncing %s: %w", w.path, err)
		}
		w.fsyncHist.ObserveDuration(time.Since(syncBegin))
	}
	w.appendHist.ObserveDuration(time.Since(begin))
	w.appends.Inc()
	w.appendedBytes.Add(int64(len(frame)))
	w.records++
	w.bytes += int64(len(frame))
	return nil
}

// rollback truncates a failed append away, restoring the last record
// boundary; if even that fails the log is poisoned against further appends.
func (w *wal) rollback() {
	if err := w.f.Truncate(w.bytes); err != nil {
		w.broken = true
		return
	}
	if _, err := w.f.Seek(w.bytes, io.SeekStart); err != nil {
		w.broken = true
	}
}

// reset empties the log after its contents have been captured by a
// committed manifest — reset is the point of no return for the logged
// records. That manifest carries a bumped epoch, so replication offsets into
// the old bytes can never alias into the new, empty log.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("ingest: truncating %s: %w", w.path, err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("ingest: syncing %s: %w", w.path, err)
		}
	}
	w.records = 0
	w.bytes = 0
	return nil
}

// close flushes and releases the file.
func (w *wal) close() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
