package ingest

import "repro/internal/obs"

// storeMetrics holds the store's metric handles, resolved once at Open. With
// no registry configured every handle is nil and every observation is a
// no-op (see package obs) — the write path carries no flags.
type storeMetrics struct {
	walAppendSeconds *obs.HistogramVec // collection
	walFsyncSeconds  *obs.HistogramVec // collection
	walAppends       *obs.CounterVec   // collection
	walAppendedBytes *obs.CounterVec   // collection
	buildSeconds     *obs.HistogramVec // backend
	compactSeconds   *obs.HistogramVec // collection
	compactions      *obs.CounterVec   // collection
	puts             *obs.Counter
	deletes          *obs.Counter
	staleRejects     *obs.Counter
}

func newStoreMetrics(r *obs.Registry) storeMetrics {
	return storeMetrics{
		walAppendSeconds: r.HistogramVec("ustridx_wal_append_seconds",
			"WAL append latency (frame write plus fsync when durability is on).", nil, "collection"),
		walFsyncSeconds: r.HistogramVec("ustridx_wal_fsync_seconds",
			"WAL fsync latency per acknowledged mutation.", nil, "collection"),
		walAppends: r.CounterVec("ustridx_wal_appends_total",
			"Acknowledged WAL appends.", "collection"),
		walAppendedBytes: r.CounterVec("ustridx_wal_appended_bytes_total",
			"Bytes appended to the WAL.", "collection"),
		buildSeconds: r.HistogramVec("ustridx_index_build_seconds",
			"Per-document index construction latency by backend kind.", nil, "backend"),
		compactSeconds: r.HistogramVec("ustridx_compaction_seconds",
			"Compaction duration (index file writes through view swap).", nil, "collection"),
		compactions: r.CounterVec("ustridx_compactions_total",
			"Completed compactions.", "collection"),
		puts:    r.Counter("ustridx_puts_total", "Acknowledged document puts."),
		deletes: r.Counter("ustridx_deletes_total", "Acknowledged document deletes."),
		staleRejects: r.Counter("ustridx_stale_epoch_rejections_total",
			"Mutations rejected because the store is fenced at a stale epoch."),
	}
}

// registerStatusGauges publishes scrape-time gauges over the store's
// per-collection Status: WAL size, pending delta/tombstones, epoch. They are
// recomputed on every scrape rather than maintained on the write path.
func (st *Store) registerStatusGauges(r *obs.Registry) {
	if r == nil {
		return
	}
	walBytes := r.GaugeVec("ustridx_wal_bytes", "Current WAL size in bytes.", "collection")
	walRecords := r.GaugeVec("ustridx_wal_records", "Records in the current WAL.", "collection")
	deltaDocs := r.GaugeVec("ustridx_delta_docs", "Live documents put or replaced since the last compaction.", "collection")
	tombstones := r.GaugeVec("ustridx_tombstones", "Documents of the last compaction deleted or replaced since.", "collection")
	epoch := r.GaugeVec("ustridx_wal_epoch", "Durable WAL epoch (bumped at truncation).", "collection")
	docs := r.GaugeVec("ustridx_docs", "Live documents.", "collection")
	indexBytes := r.GaugeVec("ustridx_index_bytes", "Resident index footprint in bytes.", "collection")
	fenced := r.Gauge("ustridx_ingest_fenced",
		"1 when the store is fenced at a stale epoch (a newer primary exists).")
	r.OnScrape(func() {
		f, _ := st.Fenced()
		if f {
			fenced.SetInt(1)
		} else {
			fenced.SetInt(0)
		}
		for _, cs := range st.Status() {
			walBytes.With(cs.Name).SetInt(cs.WALBytes)
			walRecords.With(cs.Name).SetInt(int64(cs.WALRecords))
			deltaDocs.With(cs.Name).SetInt(int64(cs.DeltaDocs))
			tombstones.With(cs.Name).SetInt(int64(cs.Tombstones))
			epoch.With(cs.Name).SetInt(int64(cs.Epoch))
			docs.With(cs.Name).SetInt(int64(cs.Docs))
			indexBytes.With(cs.Name).SetInt(int64(cs.IndexBytes))
		}
	})
}
