package main

// The traced run. One query pool is timed at every public layer boundary,
// from outside: the per-document backends, the catalog collection that fans
// out over them, the ingest view over the collection, the server's handler,
// and the handler behind a real socket. Every call leaves a span; a layer's
// self time is its span minus the span one rung down for the same query.
//
// The rungs are separate calls of the same query, not one call observed at
// five depths — instrumenting the inside of the program is a later change —
// so a span's parent is "the layer that would have made this call", and the
// link carries no containment in time.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/server"
)

// Rungs, outermost first.
const (
	rungWire = iota
	rungServer
	rungIngest
	rungCatalog
	rungCore
	rungs
)

var rungLayer = [rungs]string{"wire", "server", "ingest", "catalog", "core"}

// span is one timed call. Spans of one query in one pass share Query and
// Pass; Parent is the ID of the same query's span one rung up, 0 at the top.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Query   int    `json:"query"`
	Pass    int    `json:"pass"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) record(name string, parent, query, pass int, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Query: query, Pass: pass, StartNs: int64(start), EndNs: int64(end)})
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder times one backend's collection at every rung.
type ladder struct {
	backend string
	approx  bool
	in      *inputs
	ixs     []core.Backend
	col     *catalog.Collection
	view    querier
	handler http.Handler
	reqs    []*http.Request // one per pool tuple
	paths   []string
	conn    *client

	tr     *tracer
	failed int
	hits   []hit

	// dur[rung][pass*pool+query] in nanoseconds; coreWork, indexed alike, is
	// the backend work of the core-rung call summed over all documents.
	dur      [rungs][]float64
	coreWork []float64
	work     time.Duration // backend work of the latest core-rung call
	// allocs[rung] is what one untimed sweep of the pool at that rung allocated.
	allocs [rungs]uint64
}

// call runs pool tuple q at one rung and, with check, judges its answer.
func (l *ladder) call(rung, q int, check bool) (start, end time.Duration, ok bool) {
	t := &l.in.pool[q]
	var count int
	var dh []catalog.DocHit
	var err error
	var body []byte
	status := http.StatusOK
	switch rung {
	case rungCore:
		start = time.Since(l.tr.epoch)
		var slowest time.Duration
		count, slowest, l.work, err = l.core(t)
		// Per-document answers are checked by count only: merging them is
		// the catalog's job, one rung up.
		return start, start + slowest, err == nil && (!check || l.approx || t.op == opTopK || count == len(l.in.truth[q].at))
	case rungCatalog:
		start = time.Since(l.tr.epoch)
		count, dh, err = execDirect(l.col, t, l.approx)
		end = time.Since(l.tr.epoch)
	case rungIngest:
		start = time.Since(l.tr.epoch)
		count, dh, err = execDirect(l.view, t, l.approx)
		end = time.Since(l.tr.epoch)
	case rungServer:
		rec := httptest.NewRecorder()
		start = time.Since(l.tr.epoch)
		l.handler.ServeHTTP(rec, l.reqs[q])
		end = time.Since(l.tr.epoch)
		status, body = rec.Code, rec.Body.Bytes()
	case rungWire:
		start = time.Since(l.tr.epoch)
		status, body, err = l.conn.do("GET", l.paths[q], nil)
		end = time.Since(l.tr.epoch)
	}
	if err != nil || status != http.StatusOK {
		return start, end, false
	}
	if !check {
		return start, end, true
	}
	l.hits = l.hits[:0]
	if body != nil {
		if count, l.hits, err = parseReply(body, l.hits); err != nil {
			return start, end, false
		}
	} else {
		for _, h := range dh {
			l.hits = append(l.hits, hit{doc: h.Doc, pos: h.Pos, prob: h.Prob})
		}
	}
	return start, end, l.in.truth[q].check(t, l.approx, count, l.hits)
}

// core runs one query on every document's backend, shard by shard as the
// catalog assigns them (round-robin), on this goroutine. total is the
// backend work of the query; slowest is the slower shard's share of it — the
// part of a catalog call that cannot overlap, and so the span the catalog's
// self time is measured against. (Against total, a fan-out that works would
// show as negative self time.)
func (l *ladder) core(t *tuple) (count int, slowest, total time.Duration, err error) {
	shards := l.col.Shards()
	for s := 0; s < shards; s++ {
		begin := time.Now()
		for i := s; i < len(l.ixs); i += shards {
			ix := l.ixs[i]
			switch t.effectiveOp(l.approx) {
			case opTopK:
				var hs []core.Hit
				hs, err = ix.SearchTopK(t.pattern, topK)
				count += len(hs)
			case opCount:
				var n int
				n, err = ix.SearchCount(t.pattern, t.tau)
				count += n
			default:
				var hs []core.Hit
				hs, err = ix.SearchHits(t.pattern, t.tau)
				count += len(hs)
			}
			if err != nil {
				return 0, 0, 0, err
			}
		}
		d := time.Since(begin)
		total += d
		slowest = max(slowest, d)
	}
	return count, slowest, total, nil
}

// run makes the configured number of passes over the pool. A pass sweeps the
// whole pool at one rung, then at the next: a query meets every rung as cold
// as a request meets the server, and successive socket calls find the
// connection's goroutines as awake as a client under load does. (Run back to
// back, the five calls of one query would warm the caches for each other, and
// the socket call would pay for waking a parked thread.) Passes alternate
// between walking down the ladder and up, so that what drifts over a pass
// cancels out of the differences between rungs. The first pass checks every
// answer. Allocations are counted afterwards, rung by rung, with nothing but
// the calls between the two readings.
func (l *ladder) run(passes int) {
	n := len(l.in.pool)
	type interval struct{ start, end time.Duration }
	var at [rungs][]interval
	for rung := range at {
		at[rung] = make([]interval, n)
	}
	work := make([]float64, n)
	for pass := 0; pass < passes; pass++ {
		for k := 0; k < rungs; k++ {
			rung := k
			if pass%2 == 1 {
				rung = rungs - 1 - k
			}
			for q := 0; q < n; q++ {
				start, end, ok := l.call(rung, q, pass == 0)
				if !ok {
					l.failed++
				}
				at[rung][q] = interval{start, end}
				if rung == rungCore {
					work[q] = float64(l.work)
				}
			}
		}
		for q := 0; q < n; q++ {
			parent := 0 // outermost first: a span's parent exists before it
			for rung := 0; rung < rungs; rung++ {
				parent = l.tr.record(rungLayer[rung]+"."+l.backend, parent, q, pass, at[rung][q].start, at[rung][q].end)
				l.dur[rung] = append(l.dur[rung], float64(at[rung][q].end-at[rung][q].start))
			}
		}
		l.coreWork = append(l.coreWork, work...)
	}
	for rung := 0; rung < rungs; rung++ {
		before := mallocs()
		for q := 0; q < n; q++ {
			l.call(rung, q, false)
		}
		l.allocs[rung] = mallocs() - before
	}
}

// opDurations selects, from per-call durations in call order, those of the
// tuples sent as op.
func (l *ladder) opDurations(dur []float64, op opKind) []float64 {
	var out []float64
	n := len(l.in.pool)
	for i, d := range dur {
		if l.in.pool[i%n].effectiveOp(l.approx) == op {
			out = append(out, d)
		}
	}
	return out
}

// selfTimes is, per search query and pass, the rung's span minus the span
// one rung down.
func (l *ladder) selfTimes(rung int) []float64 {
	var out []float64
	n := len(l.in.pool)
	for i, d := range l.dur[rung] {
		if l.in.pool[i%n].effectiveOp(l.approx) == opSearch {
			out = append(out, d-l.dur[rung+1][i])
		}
	}
	return out
}

// viewSelf is what the ingest view adds to the collection's own search. The
// view is a sibling of Collection.Search, not a wrapper around it, and the
// difference is a few hundred nanoseconds: less than two sweeps taken tens of
// milliseconds apart can resolve. So the two are called back to back for
// every search tuple, in alternating order, twice over, and the median of the
// paired differences is reported.
func (l *ladder) viewSelf() float64 {
	var diffs []float64
	for rep := 0; rep < 2; rep++ {
		for q := range l.in.pool {
			t := &l.in.pool[q]
			if t.effectiveOp(l.approx) != opSearch {
				continue
			}
			var d [2]time.Duration // the collection, the view
			for k := 0; k < 2; k++ {
				side := (k + q + rep) % 2
				target := querier(l.col)
				if side == 1 {
					target = l.view
				}
				begin := time.Now()
				if _, _, err := execDirect(target, t, l.approx); err != nil {
					l.failed++
				}
				d[side] = time.Since(begin)
			}
			diffs = append(diffs, float64(d[1]-d[0]))
		}
	}
	return median(diffs)
}

func (l *ladder) report(r *result) {
	b := l.backend
	set := func(pattern string, v float64) { r.metrics[layerName(pattern, b)] = v }
	p50 := func(rung int) float64 { return median(l.opDurations(l.dur[rung], opSearch)) }
	set("core.%.search_ns", median(l.opDurations(l.coreWork, opSearch)))
	set("core.%.count_ns", median(l.opDurations(l.coreWork, opCount)))
	if !l.approx {
		set("core.%.topk_ns", median(l.opDurations(l.coreWork, opTopK)))
	}
	set("core.%.shard_ns", p50(rungCore))
	set("catalog.%.search_ns", p50(rungCatalog))
	set("ingest.%.view_search_ns", p50(rungIngest))
	set("server.%.handler_ns", p50(rungServer))
	set("wire.%.socket_ns", p50(rungWire))
	set("catalog.%.self_ns", median(l.selfTimes(rungCatalog)))
	set("ingest.%.self_ns", l.viewSelf())
	set("server.%.self_ns", median(l.selfTimes(rungServer)))
	set("wire.%.self_ns", median(l.selfTimes(rungWire)))
	perOp := func(rung int) float64 { return float64(l.allocs[rung]) / float64(len(l.in.pool)) }
	set("core.%.allocs_per_op", perOp(rungCore))
	set("catalog.%.allocs_per_op", perOp(rungCatalog))
	set("server.%.allocs_per_op", perOp(rungServer))
	r.attempted += len(l.in.pool) * rungs
	r.failed += l.failed
}

// costs replays the search tuples through the costed backend entry points:
// how many candidates the index examined per occurrence it reported, and how
// many suffix-structure steps a query took.
func (l *ladder) costs(r *result) {
	var st core.QueryStats
	hits, queries := 0, 0
	for i := range l.in.pool {
		t := &l.in.pool[i]
		if t.effectiveOp(l.approx) != opSearch {
			continue
		}
		queries++
		for _, ix := range l.ixs {
			hs, err := ix.SearchHitsCosted(t.pattern, t.tau, &st)
			if err != nil {
				l.failed++
			}
			hits += len(hs)
		}
	}
	r.metrics[layerName("core.%.candidates_per_hit", l.backend)] = float64(st.Candidates) / float64(max(hits, 1))
	r.metrics[layerName("core.%.suffix_steps_per_query", l.backend)] = float64(st.SuffixSteps) / float64(queries)
}

// unaccounted asks the handler for its own stage timings (X-Debug-Obs) and
// reports the median share of the handler span that no stage claims.
func (l *ladder) unaccounted(r *result) {
	var shares, bytes []float64
	for q := range l.in.pool {
		req := l.reqs[q].Clone(l.reqs[q].Context())
		req.Header.Set(server.DebugObsHeader, "1")
		rec := httptest.NewRecorder()
		begin := time.Now()
		l.handler.ServeHTTP(rec, req)
		total := time.Since(begin)
		bytes = append(bytes, float64(rec.Body.Len()))
		if l.in.pool[q].effectiveOp(l.approx) != opSearch {
			continue
		}
		var staged time.Duration
		for _, stage := range strings.Split(rec.Header().Get("Server-Timing"), ",") {
			// backend_search is the shards' busy time summed, inside fanout's
			// wall time: counting both would claim the same interval twice.
			if name, dur, ok := strings.Cut(stage, ";dur="); ok && strings.TrimSpace(name) != "backend_search" {
				if ms, err := strconv.ParseFloat(strings.TrimSpace(dur), 64); err == nil {
					staged += time.Duration(ms * 1e6)
				}
			}
		}
		shares = append(shares, 1-float64(staged)/float64(total))
	}
	r.metrics[layerName("server.%.unaccounted_ratio", l.backend)] = median(shares)
	if l.backend == core.BackendPlain {
		sum := 0.0
		for _, b := range bytes {
			sum += b
		}
		r.metrics["server.resp_bytes_per_op"] = sum / float64(len(bytes))
	}
}

// traceOverhead times the socket rung with and without span recording and
// reports the ratio of the medians. Recording alternates from call to call
// and from pass to pass, so both sides see every query, at the same times.
func (l *ladder) traceOverhead(r *result) {
	var with, without []float64
	for pass := 0; pass < 4; pass++ {
		for q := range l.in.pool {
			start, end, _ := l.call(rungWire, q, false)
			if (pass+q)%2 == 0 {
				l.tr.record("overhead."+l.backend, 0, q, pass, start, end)
				with = append(with, float64(time.Since(l.tr.epoch)-start))
			} else {
				without = append(without, float64(time.Since(l.tr.epoch)-start))
			}
		}
	}
	r.metrics["trace.overhead_ratio"] = median(with) / median(without)
}

// runLadder boots a primary over the static stack's catalog — the indexes
// are shared, not rebuilt — with the result cache off, and climbs the ladder
// on each of its collections.
func runLadder(e *env, in *inputs, static *stack, tr *tracer, r *result) error {
	st, err := bootIngest(filepath.Join(e.dir, "ladder"), static.cat, static.colls, -1, server.Config{CacheEntries: -1})
	if err != nil {
		return err
	}
	defer func() {
		st.cat = nil // the static stack owns the catalog
		st.close()
	}()
	conn, err := dial(st.addr, "")
	if err != nil {
		return err
	}
	defer conn.close()
	for _, ref := range st.colls {
		col, _ := st.cat.Get(ref.name)
		view, ok := st.store.Get(ref.name)
		if !ok {
			return fmt.Errorf("ladder: ingest store lacks collection %q", ref.name)
		}
		l := &ladder{backend: ref.name, approx: ref.approx, in: in, ixs: col.DocIndexes(), col: col, view: view,
			handler: st.handler, paths: pathsFor(in.pool, ref), conn: conn, tr: tr}
		for _, p := range l.paths {
			l.reqs = append(l.reqs, httptest.NewRequest("GET", p, nil))
		}
		l.run(e.sc.ladderPasses[ref.name])
		l.costs(r)
		l.unaccounted(r)
		if ref.name == core.BackendPlain {
			l.traceOverhead(r)
		}
		l.report(r)
		r.metrics[layerName("core.%.bytes_per_pos", ref.name)] = float64(col.IndexBytes()) / float64(col.Positions())
	}
	return nil
}

// printLadder prints the per-rung table: p50, self time and allocations per
// call for every backend.
func printLadder(w *os.File, r *result) {
	fmt.Fprintf(w, "%-12s %-8s %14s %14s %12s\n", "backend", "rung", "p50 ns", "self ns", "allocs/op")
	for _, b := range core.BackendKinds() {
		rows := []struct{ rung, p50, self, allocs string }{
			{"core", "core.%.shard_ns", "core.%.shard_ns", "core.%.allocs_per_op"},
			{"catalog", "catalog.%.search_ns", "catalog.%.self_ns", "catalog.%.allocs_per_op"},
			{"ingest", "ingest.%.view_search_ns", "ingest.%.self_ns", ""},
			{"server", "server.%.handler_ns", "server.%.self_ns", "server.%.allocs_per_op"},
			{"wire", "wire.%.socket_ns", "wire.%.self_ns", ""},
		}
		for _, row := range rows {
			allocs := "-"
			if row.allocs != "" {
				allocs = fmt.Sprintf("%.1f", r.metrics[layerName(row.allocs, b)])
			}
			fmt.Fprintf(w, "%-12s %-8s %14.0f %14.0f %12s\n", b, row.rung,
				r.metrics[layerName(row.p50, b)], r.metrics[layerName(row.self, b)], allocs)
		}
		fmt.Fprintf(w, "%-12s backend work over all documents %.0f ns; handler time no Server-Timing stage claims %.1f%%\n", b,
			r.metrics[layerName("core.%.search_ns", b)], 100*r.metrics[layerName("server.%.unaccounted_ratio", b)])
	}
}

// runTraced is the -trace 1 run. It is the same programme whatever the
// workload named on the command line: the per-layer set spans all three
// backends and the two workloads that have counters of their own, and every
// traced run must report all of it.
func runTraced(e *env, traceOut string) (*result, error) {
	r := newResult()
	in := e.inputs(true)
	static, err := bootStatic(filepath.Join(e.dir, "static"), in.docs, allSpecs, false, openHotkeyConfig())
	if err != nil {
		return nil, err
	}
	defer static.close()
	tr := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	if err := runLadder(e, in, static, tr, r); err != nil {
		return nil, err
	}
	if err := runMicro(e, in, r); err != nil {
		return nil, err
	}
	// The two workloads with layer counters of their own, at a quarter of the
	// run length each. open-hotkey reuses the catalog the ladder climbed;
	// ingest-churn needs a primary of its own. Only their per-layer metrics
	// are kept.
	mini := *e
	mini.measure, mini.warm, mini.mini = e.measure/4, e.warm/2, true
	if err := openHotkeyLoad(&mini, static, in, r); err != nil {
		return nil, err
	}
	churn, err := runIngestChurn(&mini)
	if err != nil {
		return nil, err
	}
	r.merge(churn)
	printLadder(os.Stderr, r)
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: wrote %d spans to %s\n", len(tr.spans), traceOut)
	}
	return r, nil
}
