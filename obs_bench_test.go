// Observability overhead: the always-on instrumentation the server adds
// around every catalog search — the per-collection latency histogram plus
// the request cost accounting (an obs.Cost descending the fan-out and the
// per-resource cost histogram observations; the trace stays nil unless
// -slow-query-ms enables the slow-query log) — must stay within 2% of the
// raw query path on the BENCH_5 long-pattern slice of the standard backend
// workload. The comparison is taken as interleaved
// per-round medians, like BENCH_5's enforced plain-vs-approx race, so
// scheduler noise hits both variants equally.
//
// The trace-enabled path is measured too but reported rather than enforced:
// a live trace reads the clock around the fan-out, inside every shard
// goroutine and around the merge, which on microsecond-scale searches costs
// a few percent (see EXPERIMENTS.md) — that is the price of a per-stage
// breakdown, paid only on daemons that opted into the slow-query log.
package repro_test

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// obsOverheadLimit is the acceptance bar for the always-on path:
// instrumented ≤ 1.02 × raw.
const obsOverheadLimit = 1.02

// searchRaw is the uninstrumented baseline: the query path with a nil
// trace and no metrics, as library callers drive it.
func searchRaw(col *catalog.Collection, p []byte) error {
	_, err := col.Search(p, backendBenchTau)
	return err
}

// costSink mirrors the server's per-(collection, backend) cost-histogram
// bundle: five pre-resolved histogram children fed from the request cost.
type costSink struct {
	shards, candidates, suffixSteps, indexBytes, mergeComparisons *obs.Histogram
}

func newCostSink(r *obs.Registry) *costSink {
	vec := r.HistogramVec("bench_query_cost", "Bench sink.", obs.CountBuckets,
		"collection", "backend", "resource")
	return &costSink{
		shards:           vec.With("bench", "plain", "shards"),
		candidates:       vec.With("bench", "plain", "candidates"),
		suffixSteps:      vec.With("bench", "plain", "suffix_steps"),
		indexBytes:       vec.With("bench", "plain", "index_bytes"),
		mergeComparisons: vec.With("bench", "plain", "merge_comparisons"),
	}
}

func (c *costSink) observe(v obs.Cost) {
	c.shards.Observe(float64(v.ShardsTouched))
	c.candidates.Observe(float64(v.Candidates))
	c.suffixSteps.Observe(float64(v.SuffixSteps))
	c.indexBytes.Observe(float64(v.IndexBytes))
	c.mergeComparisons.Observe(float64(v.MergeComparisons))
}

// searchObserved mirrors the server's execQuery bookkeeping: the latency
// histogram observation, the always-allocated request cost descending the
// fan-out, and the per-resource cost histogram observations for the executed
// query. tr is nil on the default path and live when the slow-query log is
// enabled — the only difference between the metrics and traced variants.
func searchObserved(col *catalog.Collection, hist *obs.Histogram, costs *costSink, tr *obs.Trace, p []byte) error {
	cost := &obs.Cost{}
	begin := time.Now()
	before := *cost
	q := core.Query{Op: core.OpSearch, Pattern: p, Tau: backendBenchTau}
	_, err := col.Exec(q, catalog.ExecOpts{Trace: tr, Cost: cost})
	hist.ObserveDuration(time.Since(begin))
	costs.observe(cost.DeltaSince(before))
	return err
}

// medianOverheadNs measures one variant's per-op latency as the median of
// rounds batch-averages; call it once per round, interleaved with the
// competing variants so drift lands on all of them.
func medianOverheadNs(tb testing.TB, fn func(p []byte) error, pats [][]byte, rounds, batch int) func(r int) int64 {
	tb.Helper()
	samples := make([]int64, 0, rounds)
	return func(r int) int64 {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(pats[i%len(pats)]); err != nil {
				tb.Fatal(err)
			}
		}
		samples = append(samples, time.Since(start).Nanoseconds()/int64(batch))
		if r < rounds-1 {
			return 0
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		return samples[len(samples)/2]
	}
}

// measureObsOverhead runs the interleaved three-way comparison over the
// long-pattern slice, returning summed medians.
func measureObsOverhead(tb testing.TB) (rawNs, metricsNs, tracedNs int64) {
	st := backendBenchSetup(tb)
	col := st.colls[core.BackendPlain]
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench_query_seconds", "Bench sink.", nil)
	costs := newCostSink(reg)
	const rounds, batch = 15, 64
	for _, m := range bench5LongPatternLens {
		pats := st.pats[m]
		variants := []func(p []byte) error{
			func(p []byte) error { return searchRaw(col, p) },
			func(p []byte) error { return searchObserved(col, hist, costs, nil, p) },
			func(p []byte) error { return searchObserved(col, hist, costs, &obs.Trace{}, p) },
		}
		medians := make([]func(r int) int64, len(variants))
		for i, fn := range variants {
			medians[i] = medianOverheadNs(tb, fn, pats, rounds, batch)
			// Warm each variant before sampling.
			medianOverheadNs(tb, fn, pats, 1, batch)(0)
		}
		var last [3]int64
		for r := 0; r < rounds; r++ {
			for i, med := range medians {
				last[i] = med(r)
			}
		}
		rawNs += last[0]
		metricsNs += last[1]
		tracedNs += last[2]
	}
	return rawNs, metricsNs, tracedNs
}

// TestObsOverhead enforces the ≤2% budget on the always-on instrumentation.
// It is a wall-clock gate, so it runs only when OBS_OVERHEAD_GATE is set —
// alone, in CI's "obs overhead gate" step — and never inside a plain
// `go test ./...`, where packages testing in parallel skew the ratio.
// One remeasure is allowed before failing: the bar is two percentage
// points, so a single unlucky scheduling round on a shared CI runner must
// not fail the build when the steady-state overhead is a fraction of a
// percent.
func TestObsOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_GATE") == "" {
		t.Skip("OBS_OVERHEAD_GATE not set")
	}
	var rawNs, metricsNs, tracedNs int64
	var ratio float64
	for attempt := 0; attempt < 2; attempt++ {
		rawNs, metricsNs, tracedNs = measureObsOverhead(t)
		ratio = float64(metricsNs) / float64(rawNs)
		t.Logf("long-pattern search: raw %d ns/op, metrics %d ns/op (%.4fx), traced %d ns/op (%.4fx)",
			rawNs, metricsNs, ratio, tracedNs, float64(tracedNs)/float64(rawNs))
		if ratio <= obsOverheadLimit {
			return
		}
	}
	t.Errorf("always-on instrumentation is %.2f%% slower than raw (limit %.0f%%): raw %d ns/op, metrics %d ns/op",
		(ratio-1)*100, (obsOverheadLimit-1)*100, rawNs, metricsNs)
}

// BenchmarkObsSearch reports all three variants for `go test -bench`, so
// the overhead stays visible next to the backend benchmarks.
func BenchmarkObsSearch(b *testing.B) {
	st := backendBenchSetup(b)
	col := st.colls[core.BackendPlain]
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench_query_seconds", "Bench sink.", nil)
	costs := newCostSink(reg)
	for _, m := range bench5LongPatternLens {
		pats := st.pats[m]
		for _, v := range []struct {
			name string
			fn   func(p []byte) error
		}{
			{"raw", func(p []byte) error { return searchRaw(col, p) }},
			{"metrics", func(p []byte) error { return searchObserved(col, hist, costs, nil, p) }},
			{"traced", func(p []byte) error { return searchObserved(col, hist, costs, &obs.Trace{}, p) }},
		} {
			b.Run(fmt.Sprintf("variant=%s/m=%d", v.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := v.fn(pats[i%len(pats)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
