package main

// What the four serving workloads share: booting a stack several times
// (set-up is a metric, reported as the median), cutting a measured phase into
// slices, and reducing what the slices saw to the end-to-end metrics. The two
// static query workloads are here too; open-hotkey is in open.go and
// ingest-churn in churn.go.

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

const (
	clients    = 2 // nproc is 2: never more connections than cores
	sliceCount = 5 // a measured phase is cut into slices; see reduce
	setupReps  = 3
)

type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) merge(o *result) {
	for k, v := range o.metrics {
		r.metrics[k] = v
	}
	r.attempted += o.attempted
	r.failed += o.failed
}

// env is what a workload needs from its caller.
type env struct {
	seed    int64
	sc      scale
	dir     string        // scratch directory of this run
	warm    time.Duration // unmeasured lead-in
	measure time.Duration // measured phase
	// mini marks a workload run inside the traced run for its layer
	// counters only: one set-up instead of a median of several, and no
	// reopen timing where the reopen checks nothing.
	mini bool
	in   *inputs // the seed's inputs, generated once per run
}

func (e *env) reps() int {
	if e.mini {
		return 1
	}
	return setupReps
}

// inputs returns the run's corpus, pool and oracle, extending a cached
// oracle with the approx bounds when a caller first needs them.
func (e *env) inputs(withLoose bool) *inputs {
	if e.in == nil || (withLoose && !e.in.loose) {
		begin := time.Now()
		e.in = makeInputs(e.seed, e.sc, withLoose)
		fmt.Fprintf(os.Stderr, "benchmark: corpus, pool and oracle in %.2f s\n", time.Since(begin).Seconds())
	}
	return e.in
}

// setUp boots the stack setupReps times and keeps the last one; the others
// are torn down completely, so every repetition pays the full price.
func setUp(e *env, boot func(dir string) (*stack, error)) (*stack, float64, error) {
	var times []float64
	var st *stack
	for i := 0; i < e.reps(); i++ {
		if st != nil {
			st.close()
			if err := os.RemoveAll(filepath.Join(e.dir, fmt.Sprint("s", i-1))); err != nil {
				return nil, 0, err
			}
		}
		begin := time.Now()
		var err error
		if st, err = boot(filepath.Join(e.dir, fmt.Sprint("s", i))); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(begin).Seconds())
	}
	return st, median(times), nil
}

// medianReopen repeats reopen — which reports how long it took to get from
// persisted state to a first correct answer, and must leave that state as it
// found it — at least reps times and for up to a second, and returns the
// median in seconds. Cheap reopens (an mmap open is milliseconds) get many
// repetitions, expensive ones (a gob decode rebuilds every index) reps.
func medianReopen(reps int, reopen func() (time.Duration, error)) (float64, error) {
	var times []float64
	for begin := time.Now(); len(times) < reps || (len(times) < 101 && time.Since(begin) < time.Second); {
		elapsed, err := reopen()
		if err != nil {
			return 0, err
		}
		times = append(times, elapsed.Seconds())
	}
	return median(times), nil
}

// sample is one completed request; end is an offset from the phase's epoch.
type sample struct {
	end, lat time.Duration
	band     uint8
	write    bool
	ok       bool
}

// window is what one slice of a measured phase, or one open-loop step, saw.
type window struct {
	dur, cpu         time.Duration
	lat, short, long []float64 // µs per correct read, all and by band
	put              []float64 // ms per acknowledged write
	attempted        int
	failed           int
}

func (w *window) add(s sample) {
	w.attempted++
	switch {
	case !s.ok:
		w.failed++
	case s.write:
		w.put = append(w.put, float64(s.lat)/1e6)
	default:
		us := float64(s.lat) / 1e3
		w.lat = append(w.lat, us)
		switch s.band {
		case bandShort:
			w.short = append(w.short, us)
		case bandLong:
			w.long = append(w.long, us)
		}
	}
}

// sliceClock cuts a measured phase into slices and reads the process's CPU
// clock at every cut.
type sliceClock struct {
	at  [sliceCount + 1]time.Duration // offsets from the epoch, as observed
	cpu [sliceCount + 1]time.Duration
}

// run blocks until the phase [from, from+span) has passed.
func (c *sliceClock) run(epoch time.Time, from, span time.Duration) {
	for k := range c.at {
		time.Sleep(from + span*time.Duration(k)/sliceCount - time.Since(epoch))
		c.at[k], c.cpu[k] = time.Since(epoch), cpuTime()
	}
}

// cut sorts samples into the clock's slices by completion time; what
// completed before the first cut or after the last is left out.
func (c *sliceClock) cut(samples ...[]sample) []window {
	ws := make([]window, sliceCount)
	for k := range ws {
		ws[k].dur, ws[k].cpu = c.at[k+1]-c.at[k], c.cpu[k+1]-c.cpu[k]
	}
	for _, list := range samples {
		for _, s := range list {
			for k := range ws {
				if s.end >= c.at[k] && s.end < c.at[k+1] {
					ws[k].add(s)
					break
				}
			}
		}
	}
	return ws
}

// over is the median over windows of f, leaving out windows where f has no
// value (possible only at smoke-test run lengths).
func over(ws []window, f func(w *window) float64) float64 {
	var v []float64
	for k := range ws {
		if x := f(&ws[k]); !math.IsNaN(x) && !math.IsInf(x, 0) {
			v = append(v, x)
		}
	}
	return median(v)
}

// A window's own figures.
func readsPerS(w *window) float64 { return float64(len(w.lat)) / w.dur.Seconds() }
func p50(w *window) float64       { return median(w.lat) }
func p99(w *window) float64       { return quantile(w.lat, 0.99) }
func shortP50(w *window) float64  { return median(w.short) }
func longP50(w *window) float64   { return median(w.long) }
func cpuPerOp(w *window) float64  { return float64(w.cpu) / 1e3 / float64(len(w.lat)+len(w.put)) }

// reduce turns the windows of a measured phase into the metrics every
// workload reports. Each is the median over the windows of the window's own
// figure — its throughput, its median latency, its 99th percentile — so a
// stall of the machine, a collection cycle or a compaction lands in one or
// two windows and moves those, not the reported value.
func reduce(r *result, ws []window) {
	reads, short, long := 0, 0, 0
	for k := range ws {
		w := &ws[k]
		r.attempted += w.attempted
		r.failed += w.failed
		reads, short, long = reads+len(w.lat), short+len(w.short), long+len(w.long)
	}
	r.metrics["ops_per_s"] = over(ws, readsPerS)
	r.metrics["query_p50_us"] = over(ws, p50)
	r.metrics["query_p99_us"] = over(ws, p99)
	r.metrics["short_p50_us"] = over(ws, shortP50)
	r.metrics["long_p50_us"] = over(ws, longP50)
	r.metrics["cpu_us_per_op"] = over(ws, cpuPerOp)
	fmt.Fprintf(os.Stderr, "benchmark: %d windows, %d correct reads in all (short band %d, long band %d), %d of %d operations failed\n",
		len(ws), reads, short, long, r.failed, r.attempted)
}

// pathsFor renders every pool tuple's request target against one collection.
func pathsFor(pool []tuple, ref collRef) []string {
	out := make([]string, len(pool))
	for i := range pool {
		out[i] = pool[i].path(ref.name, ref.approx)
	}
	return out
}

// dialAll opens the workload's client connections.
func dialAll(addr, apiKey string) (conns []*client, closeAll func(), err error) {
	closeAll = func() {
		for _, c := range conns {
			c.close()
		}
	}
	for k := 0; k < clients; k++ {
		c, err := dial(addr, apiKey)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	return conns, closeAll, nil
}

// readLoop cycles the pool from offset first until the deadline — an offset
// from epoch that may be set while the loop runs — judging every reply.
func readLoop(c *client, pool []tuple, paths []string, first int, epoch time.Time, until *atomic.Int64,
	judge func(i, count int, hits []hit) bool) []sample {
	var out []sample
	for i := first; ; i = (i + 1) % len(pool) {
		start := time.Since(epoch)
		if int64(start) >= until.Load() {
			return out
		}
		status, body, err := c.do("GET", paths[i], nil)
		ok := err == nil && status == http.StatusOK
		if ok {
			var count int
			count, c.hits, err = parseReply(body, c.hits[:0])
			ok = err == nil && judge(i, count, c.hits)
		}
		end := time.Since(epoch)
		out = append(out, sample{end: end, lat: end - start, band: pool[i].band, ok: ok})
	}
}

// runStaticQuery is query-plain and query-compressed-mmap: a static catalog
// with the result cache off and two closed-loop clients cycling the pool,
// each from its own half.
func runStaticQuery(e *env, spec core.BackendSpec, mmap bool) (*result, error) {
	in := e.inputs(false)
	st, setupS, err := setUp(e, func(dir string) (*stack, error) {
		return bootStatic(dir, genCorpus(e.seed, e.sc), []core.BackendSpec{spec}, mmap, server.Config{CacheEntries: -1})
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	r := newResult()
	r.metrics["setup_s"] = setupS
	r.metrics["heap_after_setup_mb"] = heapInuseMB()
	r.metrics["index_bytes_per_pos"] = st.indexBytesPerPos()

	conns, closeAll, err := dialAll(st.addr, "")
	if err != nil {
		return nil, err
	}
	defer closeAll()
	ref := st.colls[0]
	paths := pathsFor(in.pool, ref)
	judge := func(i, count int, hits []hit) bool { return in.truth[i].check(&in.pool[i], ref.approx, count, hits) }
	var until atomic.Int64
	until.Store(int64(e.warm + e.measure))
	epoch := time.Now()
	out := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for k := range conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out[k] = readLoop(conns[k], in.pool, paths, k*len(in.pool)/len(conns), epoch, &until, judge)
		}(k)
	}
	var clock sliceClock
	clock.run(epoch, e.warm, e.measure)
	wg.Wait()
	reduce(r, clock.cut(out...))

	if r.metrics["reopen_s"], err = medianReopen(e.reps(), func() (time.Duration, error) { return st.reopenStatic(in) }); err != nil {
		return nil, err
	}
	return r, nil
}
