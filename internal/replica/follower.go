package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/ingest"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
)

// Follower defaults.
const (
	// DefaultPollInterval is the WAL poll cadence once caught up.
	DefaultPollInterval = 250 * time.Millisecond
	// DefaultDiscoverInterval is the collection-discovery cadence.
	DefaultDiscoverInterval = 2 * time.Second
	// DefaultMaxBackoff caps the reconnect backoff after repeated errors.
	DefaultMaxBackoff = 5 * time.Second
)

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Primary is the primary daemon's base URL, e.g. "http://primary:7331"
	// (required).
	Primary string
	// Store receives the replicated collections (required). Its catalog
	// options (taumin, longcap) must match the primary's; a mismatch is
	// detected at the first snapshot and reported instead of installed.
	Store *ingest.Store
	// PollInterval is the WAL poll cadence when caught up; 0 means
	// DefaultPollInterval.
	PollInterval time.Duration
	// DiscoverInterval is how often the primary's collection list is
	// re-fetched; 0 means DefaultDiscoverInterval.
	DiscoverInterval time.Duration
	// MaxBackoff caps the exponential reconnect backoff; 0 means
	// DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
	// Logf receives replication diagnostics; nil discards them. Retained
	// for compatibility — when Log is nil, a structured logger is derived
	// from it, so existing callers keep seeing every line.
	Logf func(string, ...any)
	// Log receives structured replication diagnostics (reconnects with
	// collection and WAL position, bootstraps, re-bootstrap causes). It
	// takes precedence over Logf; nil with a nil Logf discards everything.
	Log *olog.Logger
	// Metrics, when non-nil, receives follower instrumentation: snapshot
	// bootstrap durations, applied-record counters, and scrape-time
	// per-collection lag gauges read from Status.
	Metrics *obs.Registry
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.PollInterval <= 0 {
		o.PollInterval = DefaultPollInterval
	}
	if o.DiscoverInterval <= 0 {
		o.DiscoverInterval = DefaultDiscoverInterval
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Log == nil {
		o.Log = olog.FromPrintf(o.Logf, olog.Debug)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// jitter spreads a reconnect delay uniformly over ±20%, so a fleet of
// followers that lost the same primary does not hammer it back in lockstep.
// Backoff growth always applies to the unjittered base, keeping the
// schedule's expected shape independent of the draws.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}

// Typed status values a primary's feed can report; surfaced in
// CollectionLag.Status so a permanent role change is distinguishable from a
// transient network error (which leaves Status empty).
const (
	// StatusWrongRole: the node we follow is not (or is no longer) a
	// primary — it was demoted or we were pointed at a replica.
	StatusWrongRole = "wrong_role"
	// StatusStaleEpoch: the node we follow has been fenced by a newer
	// primary; its feed is permanently gone. Re-point this follower.
	StatusStaleEpoch = "stale_epoch"
)

// CollectionLag is one collection's replication state for stats reporting.
// Lag is measured against the primary head observed at the last successful
// contact.
type CollectionLag struct {
	Collection     string `json:"collection"`
	Epoch          uint64 `json:"epoch"`
	AppliedOffset  int64  `json:"applied_offset"`
	AppliedRecords int64  `json:"applied_records"`
	PrimaryOffset  int64  `json:"primary_offset"`
	PrimaryRecords int64  `json:"primary_records"`
	LagBytes       int64  `json:"lag_bytes"`
	LagRecords     int64  `json:"lag_records"`
	// Snapshots counts bootstrap loads (initial plus every epoch change).
	Snapshots int64 `json:"snapshots"`
	// Connected reports whether the last primary contact succeeded.
	Connected bool   `json:"connected"`
	LastError string `json:"last_error,omitempty"`
	// Status carries the primary's typed refusal when the disconnect is a
	// permanent role change (StatusWrongRole, StatusStaleEpoch) rather than
	// a transient error; empty otherwise.
	Status string `json:"status,omitempty"`
}

// collState is one collection's tailer state.
type collState struct {
	mu           sync.Mutex
	epoch        uint64
	applied      int64 // bytes of the epoch applied
	appliedRecs  int64
	primary      int64 // primary committed head at last contact
	primaryRecs  int64
	snapshots    int64
	connected    bool
	lastErr      string
	statusCode   string // typed feed refusal (wrong_role/stale_epoch)
	bootstrapped bool   // a snapshot has been applied at least once
}

// feedError is a primary refusal carrying a typed error code (the JSON
// error body's "code" field), e.g. wrong_role or stale_epoch.
type feedError struct {
	status int
	code   string
	msg    string
}

func (e *feedError) Error() string {
	return fmt.Sprintf("replica: primary refused: %s (%d %s)", e.msg, e.status, e.code)
}

// errorCode extracts a typed feed error code, or "".
func errorCode(err error) string {
	var fe *feedError
	if errors.As(err, &fe) {
		return fe.code
	}
	return ""
}

// Follower tails a primary's replication feed into a local store. Create
// with NewFollower, drive with Run; queries are served from the store's
// views as usual and never block on the applier.
type Follower struct {
	opts FollowerOptions
	log  *olog.Logger

	// ridPrefix/ridSeq stamp every primary fetch with an X-Request-Id of
	// the form "follower-xxxxxxxx/N", so follower traffic is attributable
	// in the primary's access log and slow-query log.
	ridPrefix string
	ridSeq    atomic.Int64

	snapshotSeconds *obs.HistogramVec // collection
	appliedRecords  *obs.CounterVec   // collection

	// promoting guards the one-way replica→primary transition; promoted is
	// set once Promote has completed and the follower is permanently done.
	promoting atomic.Bool
	promoted  atomic.Bool

	mu          sync.Mutex
	colls       map[string]*collState
	cancelTails context.CancelFunc // stops tailers without stopping Run
	promotions  []Promotion
	wg          sync.WaitGroup
}

// NewFollower validates the options and builds a follower; call Run to start
// replicating.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Primary == "" {
		return nil, errors.New("replica: FollowerOptions.Primary is required")
	}
	if _, err := url.Parse(opts.Primary); err != nil {
		return nil, fmt.Errorf("replica: bad primary URL: %w", err)
	}
	if opts.Store == nil {
		return nil, errors.New("replica: FollowerOptions.Store is required")
	}
	f := &Follower{
		opts:      opts.withDefaults(),
		ridPrefix: fmt.Sprintf("follower-%08x", rand.Uint32()),
		colls:     make(map[string]*collState),
	}
	f.log = f.opts.Log
	f.snapshotSeconds = f.opts.Metrics.HistogramVec("ustridx_replication_snapshot_seconds",
		"Bootstrap duration: snapshot fetch, missing-file copies and install.", nil, "collection")
	f.appliedRecords = f.opts.Metrics.CounterVec("ustridx_replication_applied_records_total",
		"WAL records applied from the replication feed.", "collection")
	f.registerLagGauges(f.opts.Metrics)
	return f, nil
}

// registerLagGauges publishes scrape-time per-collection lag gauges read
// from Status — the follower-side view of ROADMAP's replication-lag alert.
func (f *Follower) registerLagGauges(r *obs.Registry) {
	if r == nil {
		return
	}
	lagBytes := r.GaugeVec("ustridx_replication_lag_bytes",
		"Bytes between the primary WAL head and the applied offset.", "collection")
	lagRecords := r.GaugeVec("ustridx_replication_lag_records",
		"Records between the primary WAL head and the applied position.", "collection")
	epoch := r.GaugeVec("ustridx_replication_epoch",
		"WAL epoch the follower is applying.", "collection")
	connected := r.GaugeVec("ustridx_replication_connected",
		"1 when the last primary contact succeeded.", "collection")
	snapshots := r.GaugeVec("ustridx_replication_snapshots",
		"Bootstrap snapshot loads (initial plus every epoch change).", "collection")
	r.OnScrape(func() {
		for _, lag := range f.Status() {
			lagBytes.With(lag.Collection).SetInt(lag.LagBytes)
			lagRecords.With(lag.Collection).SetInt(lag.LagRecords)
			epoch.With(lag.Collection).SetInt(int64(lag.Epoch))
			c := int64(0)
			if lag.Connected {
				c = 1
			}
			connected.With(lag.Collection).SetInt(c)
			snapshots.With(lag.Collection).SetInt(lag.Snapshots)
		}
	})
}

// Store returns the store the follower applies into (the replica's query
// surface).
func (f *Follower) Store() *ingest.Store { return f.opts.Store }

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.opts.Primary }

// Run discovers the primary's collections and tails each until ctx is
// cancelled, then waits for every tailer to stop. It always returns nil on
// cancellation: losing the primary is an operational state (reported via
// Status), not a fatal error.
func (f *Follower) Run(ctx context.Context) error {
	// Tailers run under a derived context so Promote can stop them (and
	// discovery of new ones) while Run keeps the process's lifecycle.
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.mu.Lock()
	f.cancelTails = cancel
	f.mu.Unlock()
	for {
		if !f.promoting.Load() {
			if err := f.discover(tctx); err != nil && ctx.Err() == nil && !f.promoting.Load() {
				f.log.Warn("replica: collection discovery failed",
					"primary", f.opts.Primary, "error", err)
			}
		}
		select {
		case <-ctx.Done():
			f.wg.Wait()
			return nil
		case <-time.After(f.opts.DiscoverInterval):
		}
	}
}

// discover fetches the primary's collection list and starts a tailer for
// every collection not yet followed. Collections are never dropped: a
// collection deleted on the primary simply stops producing records.
func (f *Follower) discover(ctx context.Context) error {
	var stats struct {
		Collections []struct {
			Name string `json:"name"`
		} `json:"collections"`
		Role string `json:"role"`
	}
	if err := f.getJSON(ctx, "/v1/stats", &stats); err != nil {
		return err
	}
	if stats.Role != "" && stats.Role != "primary" {
		f.log.Warn("replica: primary reports non-primary role; only primaries serve the replication feed",
			"primary", f.opts.Primary, "role", stats.Role)
	}
	for _, c := range stats.Collections {
		f.mu.Lock()
		_, known := f.colls[c.Name]
		if !known {
			cs := &collState{}
			f.colls[c.Name] = cs
			f.wg.Add(1)
			go f.tail(ctx, c.Name, cs)
		}
		f.mu.Unlock()
	}
	return nil
}

// tail is one collection's replication loop: bootstrap from a snapshot, then
// poll the WAL feed, applying each chunk; on any error reconnect with
// exponential backoff, and on an epoch change re-bootstrap.
func (f *Follower) tail(ctx context.Context, coll string, cs *collState) {
	defer f.wg.Done()
	backoff := f.opts.PollInterval
	needSnapshot := true
	for ctx.Err() == nil {
		var err error
		var idle bool
		if needSnapshot {
			err = f.bootstrap(ctx, coll, cs)
			if err == nil {
				needSnapshot = false
			}
		} else {
			needSnapshot, idle, err = f.poll(ctx, coll, cs)
		}
		switch {
		case errors.Is(err, errGone):
			// A file of the snapshot was unlinked by a later fold: the next
			// snapshot names its successor.
			f.log.Info("replica: snapshot file gone; re-bootstrapping",
				"collection", coll, "error", err)
			backoff = f.opts.PollInterval
			if !f.sleep(ctx, f.opts.PollInterval) {
				return
			}
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			code := errorCode(err)
			cs.mu.Lock()
			cs.connected = false
			cs.lastErr = err.Error()
			prevCode := cs.statusCode
			cs.statusCode = code
			epoch, offset := cs.epoch, cs.applied
			cs.mu.Unlock()
			if code == StatusWrongRole || code == StatusStaleEpoch {
				// A typed role refusal is a permanent condition, not a
				// transient outage: the node we follow was demoted, fenced,
				// or never was a primary. Surface it loudly (once per
				// transition) and back off at the cap instead of hammering —
				// the fix is operational (re-point or restart this follower
				// against the new primary), not a retry.
				if prevCode != code {
					f.log.Error("replica: primary role changed; re-point this follower at the current primary",
						"collection", coll, "status", code, "error", err)
				}
				backoff = f.opts.MaxBackoff
				if !f.sleep(ctx, jitter(backoff)) {
					return
				}
				continue
			}
			// The actual wait is jittered ±20% (herd protection); the
			// exponential growth below applies to the unjittered base.
			wait := jitter(backoff)
			f.log.Warn("replica: reconnecting",
				"collection", coll, "epoch", epoch, "offset", offset,
				"error", err, "backoff", wait)
			if !f.sleep(ctx, wait) {
				return
			}
			if backoff *= 2; backoff > f.opts.MaxBackoff {
				backoff = f.opts.MaxBackoff
			}
		case idle:
			backoff = f.opts.PollInterval
			if !f.sleep(ctx, f.opts.PollInterval) {
				return
			}
		default:
			// Progress was made (snapshot applied, records applied, or a
			// re-bootstrap was requested): continue immediately.
			backoff = f.opts.PollInterval
		}
	}
}

// bootstrap fetches one snapshot and installs it, copying the files the
// store lacks.
func (f *Follower) bootstrap(ctx context.Context, coll string, cs *collState) error {
	begin := time.Now()
	q := url.Values{"collection": {coll}}
	body, err := f.get(ctx, "/v1/replication/snapshot?"+q.Encode())
	if err != nil {
		return err
	}
	snap, err := decodeSnapshot(coll, body)
	body.Close()
	if err != nil {
		return err
	}
	fetched, err := f.opts.Store.Install(coll, &snap.Manifest, func(d catalog.ManifestDoc) (io.ReadCloser, error) {
		q.Set("file", strconv.FormatUint(d.File, 10))
		return f.get(ctx, "/v1/replication/file?"+q.Encode())
	})
	if err != nil {
		return err
	}
	f.snapshotSeconds.With(coll).ObserveDuration(time.Since(begin))
	cs.mu.Lock()
	cs.epoch = snap.Epoch
	cs.applied = 0
	cs.appliedRecs = 0
	cs.primary = snap.Committed
	cs.primaryRecs = snap.Records
	cs.snapshots++
	cs.connected = true
	cs.lastErr = ""
	cs.statusCode = ""
	cs.bootstrapped = true
	cs.mu.Unlock()
	f.log.Info("replica: bootstrapped",
		"collection", coll, "docs", len(snap.Manifest.Docs), "fetched", fetched,
		"epoch", snap.Epoch)
	return nil
}

// poll fetches and applies one WAL chunk. It reports whether the follower
// must re-bootstrap and whether it is caught up (idle).
func (f *Follower) poll(ctx context.Context, coll string, cs *collState) (resnapshot, idle bool, err error) {
	cs.mu.Lock()
	epoch, from := cs.epoch, cs.applied
	cs.mu.Unlock()
	chunk, err := f.fetchWAL(ctx, coll, epoch, from)
	if err != nil {
		return false, false, err
	}
	if chunk.SnapshotRequired {
		f.log.Info("replica: position gone; re-bootstrapping",
			"collection", coll, "epoch", epoch, "offset", from,
			"primary_epoch", chunk.Epoch)
		return true, false, nil
	}
	recs, n, err := decodeFrames(chunk.Frames)
	if err != nil {
		// The feed only ships whole frames; a partial or undecodable chunk
		// means the stream is damaged. Re-bootstrap rather than guess.
		f.log.Warn("replica: damaged wal chunk; re-bootstrapping",
			"collection", coll, "epoch", epoch, "offset", from, "error", err)
		return true, false, nil
	}
	if len(recs) > 0 {
		if err := f.opts.Store.Apply(coll, recs); err != nil {
			return false, false, err
		}
		f.appliedRecords.With(coll).Add(int64(len(recs)))
	}
	cs.mu.Lock()
	cs.applied = from + n
	cs.appliedRecs += int64(len(recs))
	cs.primary = chunk.Committed
	cs.primaryRecs = chunk.Records
	cs.connected = true
	cs.lastErr = ""
	cs.statusCode = ""
	caughtUp := cs.applied >= cs.primary
	cs.mu.Unlock()
	return false, caughtUp, nil
}

// decodeFrames decodes a chunk's raw frames, requiring every byte to belong
// to a whole record.
func decodeFrames(frames []byte) ([]ingest.WALRecord, int64, error) {
	if len(frames) == 0 {
		return nil, 0, nil
	}
	recs, valid, err := ingest.ScanWAL(bytes.NewReader(frames))
	if err != nil {
		return nil, 0, err
	}
	if valid != int64(len(frames)) {
		return nil, 0, fmt.Errorf("replica: chunk of %d bytes holds only %d bytes of whole frames", len(frames), valid)
	}
	return recs, valid, nil
}

// sleep waits d or until ctx is done, reporting whether to keep running.
func (f *Follower) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// nextRequestID returns the follower's next X-Request-Id value
// ("follower-xxxxxxxx/N"): one process-unique prefix, one sequence number
// per primary fetch. The primary honours well-formed client ids, so these
// appear verbatim in its access log.
func (f *Follower) nextRequestID() string {
	return f.ridPrefix + "/" + strconv.FormatInt(f.ridSeq.Add(1), 10)
}

// get issues a GET against a primary endpoint and returns the body of its
// 200 answer; any other status is an error, typed when the body carries a
// code. A 404 wraps errGone.
func (f *Follower) get(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Primary+path, nil)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	req.Header.Set("X-Request-Id", f.nextRequestID())
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp.Body, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	if fe := parseFeedError(resp.StatusCode, body); fe != nil {
		return nil, fmt.Errorf("replica: GET %s: %w", path, fe)
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("replica: GET %s: %w", path, errGone)
	}
	return nil, fmt.Errorf("replica: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
}

// errGone reports a resource the primary no longer holds — during a
// bootstrap, a file a later fold unlinked: the follower re-bootstraps
// after one poll interval, without backing off.
var errGone = errors.New("not found")

// getJSON fetches a primary endpoint and decodes its JSON body.
func (f *Follower) getJSON(ctx context.Context, path string, out any) error {
	body, err := f.get(ctx, path)
	if err != nil {
		return err
	}
	defer body.Close()
	if err := json.NewDecoder(body).Decode(out); err != nil {
		return fmt.Errorf("replica: GET %s: bad JSON: %w", path, err)
	}
	return nil
}

// parseFeedError recovers a typed error code from a JSON error body, so the
// caller can distinguish a permanent role refusal from a transient failure.
// It returns nil when the body carries no code.
func parseFeedError(status int, body []byte) *feedError {
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(body, &e) != nil || e.Code == "" {
		return nil
	}
	return &feedError{status: status, code: e.Code, msg: e.Error}
}

// fetchWAL polls the primary's WAL feed.
func (f *Follower) fetchWAL(ctx context.Context, coll string, epoch uint64, from int64) (*WALChunk, error) {
	q := url.Values{}
	q.Set("collection", coll)
	q.Set("epoch", strconv.FormatUint(epoch, 10))
	q.Set("from", strconv.FormatInt(from, 10))
	var chunk WALChunk
	if err := f.getJSON(ctx, "/v1/replication/wal?"+q.Encode(), &chunk); err != nil {
		return nil, err
	}
	return &chunk, nil
}

// Status reports per-collection replication lag in name order.
func (f *Follower) Status() []CollectionLag {
	f.mu.Lock()
	names := make([]string, 0, len(f.colls))
	for n := range f.colls {
		names = append(names, n)
	}
	states := make(map[string]*collState, len(f.colls))
	for n, cs := range f.colls {
		states[n] = cs
	}
	f.mu.Unlock()
	sort.Strings(names)
	out := make([]CollectionLag, 0, len(names))
	for _, n := range names {
		cs := states[n]
		cs.mu.Lock()
		lag := CollectionLag{
			Collection:     n,
			Epoch:          cs.epoch,
			AppliedOffset:  cs.applied,
			AppliedRecords: cs.appliedRecs,
			PrimaryOffset:  cs.primary,
			PrimaryRecords: cs.primaryRecs,
			LagBytes:       cs.primary - cs.applied,
			LagRecords:     cs.primaryRecs - cs.appliedRecs,
			Snapshots:      cs.snapshots,
			Connected:      cs.connected,
			LastError:      cs.lastErr,
			Status:         cs.statusCode,
		}
		cs.mu.Unlock()
		if lag.LagBytes < 0 {
			lag.LagBytes = 0
		}
		if lag.LagRecords < 0 {
			lag.LagRecords = 0
		}
		out = append(out, lag)
	}
	return out
}

// PromotionEpoch returns the first epoch of the generation after cur's.
// Epochs are split: the high 32 bits count promotions (the fencing term),
// the low 32 bits local checkpoint bumps (compaction resets, torn-tail
// truncations). A promoted epoch therefore dominates ANY number of local
// bumps a demoted primary makes while unaware of the new lineage — without
// the split, a compaction-happy old primary could out-count the promotion
// epoch during the race window and shrug off the fencing probe.
func PromotionEpoch(cur uint64) uint64 { return (cur>>32 + 1) << 32 }

// Promotion reports one collection's takeover during Promote.
type Promotion struct {
	Collection string `json:"collection"`
	// Epoch is the epoch this node durably adopted — strictly above the old
	// primary's, so a feed poll carrying it fences the demoted node.
	Epoch uint64 `json:"epoch"`
	// PrimaryEpoch is the old primary's last-known epoch.
	PrimaryEpoch uint64 `json:"primary_epoch"`
	// DrainedRecords counts WAL records applied by the final drain.
	DrainedRecords int64 `json:"drained_records"`
	// Drained reports whether the drain reached the old primary's committed
	// head; false means the primary was unreachable (the usual reason to
	// promote) and the takeover proceeds from the last applied position.
	Drained bool `json:"drained"`
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Promotions returns the per-collection takeover results of a completed
// Promote, or nil.
func (f *Follower) Promotions() []Promotion {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Promotion(nil), f.promotions...)
}

// Promote turns this follower into a primary. The sequence is:
//
//  1. Stop discovery and every tailer, and wait them out, so the final
//     drain is the only applier.
//  2. Per collection, finish tailing from the last applied position until
//     the old primary's committed head (or until it is unreachable — the
//     usual reason to promote; the takeover then proceeds from the last
//     durably known position, which is exactly the acknowledged-and-
//     replicated prefix).
//  3. Per collection, fold the live set into durable index files and adopt
//     an epoch strictly above the old primary's (Store.Takeover), so this
//     node's log can never alias the demoted stream and a feed poll
//     carrying the new epoch provably fences the old primary.
//
// Promote is one-way: a promoted follower never tails again (Run keeps
// running only to preserve the process lifecycle). A second call after
// success returns the recorded promotions; a concurrent call fails.
func (f *Follower) Promote(ctx context.Context) ([]Promotion, error) {
	if !f.promoting.CompareAndSwap(false, true) {
		if f.promoted.Load() {
			return f.Promotions(), nil
		}
		return nil, errors.New("replica: promotion already in progress")
	}
	ok := false
	defer func() {
		if !ok {
			f.promoting.Store(false)
		}
	}()
	f.mu.Lock()
	cancel := f.cancelTails
	names := make([]string, 0, len(f.colls))
	for n := range f.colls {
		names = append(names, n)
	}
	f.mu.Unlock()
	sort.Strings(names)
	if cancel != nil {
		cancel()
	}
	f.wg.Wait()

	promos := make([]Promotion, 0, len(names))
	for _, name := range names {
		f.mu.Lock()
		cs := f.colls[name]
		f.mu.Unlock()
		cs.mu.Lock()
		epoch, applied, bootstrapped := cs.epoch, cs.applied, cs.bootstrapped
		cs.mu.Unlock()
		p := Promotion{Collection: name, PrimaryEpoch: epoch}
		if bootstrapped {
			p.Drained, p.DrainedRecords = f.drain(ctx, name, cs, epoch, applied)
		}
		newEpoch, err := f.opts.Store.Takeover(name, PromotionEpoch(epoch))
		if err != nil {
			return nil, fmt.Errorf("replica: takeover of %q: %w", name, err)
		}
		p.Epoch = newEpoch
		promos = append(promos, p)
		f.log.Info("replica: promoted collection",
			"collection", name, "epoch", newEpoch, "primary_epoch", epoch,
			"drained", p.Drained, "drained_records", p.DrainedRecords)
	}
	f.mu.Lock()
	f.promotions = promos
	f.mu.Unlock()
	f.promoted.Store(true)
	ok = true
	f.log.Info("replica: promoted to primary",
		"collections", len(promos), "old_primary", f.opts.Primary)
	return promos, nil
}

// drain finishes tailing one collection up to the old primary's committed
// head. Any error — the primary is dead, refused us, or compacted our
// position away — ends the drain; the takeover then proceeds from what was
// applied, the durably replicated prefix.
func (f *Follower) drain(ctx context.Context, coll string, cs *collState, epoch uint64, applied int64) (bool, int64) {
	var recsApplied int64
	for ctx.Err() == nil {
		chunk, err := f.fetchWAL(ctx, coll, epoch, applied)
		if err != nil {
			f.log.Warn("replica: drain stopped; old primary unreachable",
				"collection", coll, "offset", applied, "error", err)
			return false, recsApplied
		}
		if chunk.SnapshotRequired {
			f.log.Warn("replica: drain stopped; position gone on old primary",
				"collection", coll, "offset", applied)
			return false, recsApplied
		}
		recs, n, err := decodeFrames(chunk.Frames)
		if err != nil {
			f.log.Warn("replica: drain stopped; damaged chunk",
				"collection", coll, "offset", applied, "error", err)
			return false, recsApplied
		}
		if len(recs) > 0 {
			if err := f.opts.Store.Apply(coll, recs); err != nil {
				f.log.Warn("replica: drain stopped; local apply failed",
					"collection", coll, "error", err)
				return false, recsApplied
			}
			f.appliedRecords.With(coll).Add(int64(len(recs)))
			applied += n
			recsApplied += int64(len(recs))
			cs.mu.Lock()
			cs.applied = applied
			cs.appliedRecs += int64(len(recs))
			cs.primary = chunk.Committed
			cs.primaryRecs = chunk.Records
			cs.mu.Unlock()
		}
		if applied >= chunk.Committed {
			return true, recsApplied
		}
		if n == 0 {
			// The feed reports more committed bytes but ships none: give up
			// rather than spin.
			return false, recsApplied
		}
	}
	return false, recsApplied
}

// CaughtUp reports whether every discovered collection is bootstrapped,
// connected, and fully applied up to the primary head observed at the last
// contact. It is false until discovery has seen at least one collection.
func (f *Follower) CaughtUp() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.colls) == 0 {
		return false
	}
	for _, cs := range f.colls {
		cs.mu.Lock()
		ok := cs.bootstrapped && cs.connected && cs.applied >= cs.primary
		cs.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}
