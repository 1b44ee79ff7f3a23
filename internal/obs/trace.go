package obs

import (
	"sync"
	"time"
)

// Stage is one timed step of a traced request, as exposed in the slow-query
// log. Durations accumulate: a stage recorded more than once reports one
// stage covering every recording.
type Stage struct {
	Name       string  `json:"name"`
	DurationUs float64 `json:"duration_us"`
}

// Trace records the per-stage timings of one request as it descends the
// query path: cache lookup in the server, shard fan-out and heap merge in
// the catalog, per-backend search inside the fan-out, response encoding
// back in the server. A Trace belongs to one request and is recorded from
// that request's goroutine only (the catalog's shard goroutines hand their
// timings back through the fan-out join rather than touching the trace).
//
// The zero value is ready to use; a nil *Trace records nothing, which is
// how untraced paths (library callers, benchmarks of the raw query path)
// skip the bookkeeping entirely.
type Trace struct {
	// Identity of the traced request, filled in by the serving layer for
	// the slow-query log. The trace itself never reads them.
	Op         string
	Collection string
	Pattern    string
	Param      string
	Backend    string
	Epsilon    float64
	Cached     bool
	// EstimatedUnits is the pre-execution cost estimate the admission tier
	// priced this query at (core cost units); 0 when no estimate ran.
	EstimatedUnits float64

	stages []Stage
}

// StartStage begins timing a stage and returns the function that ends it.
// Always call the returned stop exactly once. On a nil trace both ends are
// no-ops.
func (t *Trace) StartStage(name string) func() {
	if t == nil {
		return nopStop
	}
	begin := time.Now()
	return func() { t.Add(name, time.Since(begin)) }
}

var nopStop = func() {}

// Add accumulates d into the named stage, creating it in call order on
// first use. Stages are few (≤ ~8), so the scan beats a map.
func (t *Trace) Add(name string, d time.Duration) {
	if t == nil {
		return
	}
	us := float64(d.Nanoseconds()) / 1e3
	for i := range t.stages {
		if t.stages[i].Name == name {
			t.stages[i].DurationUs += us
			return
		}
	}
	t.stages = append(t.stages, Stage{Name: name, DurationUs: us})
}

// Stages returns the recorded stages in first-recorded order. The returned
// slice is the trace's own; callers must not mutate it after handing the
// trace to a SlowLog.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	return t.stages
}

// SlowEntry is one retained slow request: what ran, how long it took, and
// where the time went stage by stage.
type SlowEntry struct {
	// Time is when the request finished.
	Time time.Time `json:"time"`
	// RequestID is the end-to-end request id (the X-Request-Id header,
	// generated when the client sent none), correlating the entry with the
	// access log and the client's own records.
	RequestID string `json:"request_id,omitempty"`
	// Endpoint is the serving endpoint name ("query", "batch", …).
	Endpoint string `json:"endpoint"`
	// Op / Collection / Pattern / Param identify the query: Param is tau
	// for search and count, k for top-k. For a batch, the per-query fields
	// are empty and Stages aggregates every op in the batch.
	Op         string `json:"op,omitempty"`
	Collection string `json:"collection,omitempty"`
	Pattern    string `json:"pattern,omitempty"`
	Param      string `json:"param,omitempty"`
	// Backend and Epsilon name the serving collection's index backend.
	Backend string  `json:"backend,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	// Tenant is the admission-control tenant the request ran under.
	Tenant string `json:"tenant,omitempty"`
	// EstimatedUnits is the pre-execution cost estimate (core cost units)
	// the admission tier priced the query at; compare with Cost to judge
	// the estimator. 0 when no estimate ran.
	EstimatedUnits float64 `json:"estimated_units,omitempty"`
	// Cached marks results served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure when the request did not succeed.
	Error string `json:"error,omitempty"`
	// DurationUs is the end-to-end request duration.
	DurationUs float64 `json:"duration_us"`
	// Stages is the per-stage breakdown from the request's trace.
	Stages []Stage `json:"stages,omitempty"`
	// Cost is the request's resource-cost breakdown (shards, candidates,
	// suffix steps, index bytes, merge comparisons, cache hits/misses).
	Cost *CostSnapshot `json:"cost,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of the most recent requests that
// exceeded a latency threshold, each retained with its per-stage trace
// breakdown. Recording takes one short mutex hold (the fast path — requests
// under the threshold — is a nil check and one comparison); the log is meant
// for requests that already took milliseconds. A nil *SlowLog records
// nothing.
type SlowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	ring      []SlowEntry
	next      int
	filled    bool
	total     int64
}

// DefaultSlowLogEntries is the default ring capacity.
const DefaultSlowLogEntries = 128

// NewSlowLog builds a slow-query log keeping the most recent capacity
// requests slower than threshold. A non-positive capacity means
// DefaultSlowLogEntries; a non-positive threshold disables the log (nil is
// returned, and a nil log records nothing).
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	if threshold <= 0 {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultSlowLogEntries
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, capacity)}
}

// Threshold returns the log's latency threshold (0 on a nil log).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Observe retains e when its duration meets the threshold, reporting
// whether it was recorded.
func (l *SlowLog) Observe(e SlowEntry) bool {
	if l == nil || e.DurationUs < float64(l.threshold.Microseconds()) {
		return false
	}
	l.mu.Lock()
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.filled = true
	}
	l.total++
	l.mu.Unlock()
	return true
}

// Total returns how many requests have ever been recorded (including those
// since evicted from the ring).
func (l *SlowLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained entries, newest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.ring)
	}
	out := make([]SlowEntry, 0, n)
	for i := 1; i <= n; i++ {
		// Walk backwards from the most recently written slot, wrapping.
		idx := (l.next - i + len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}
