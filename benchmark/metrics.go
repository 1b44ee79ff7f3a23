package main

// The metric names and units this program emits. BENCHMARK.json lists the
// same names; the smoke test fails if the two ever disagree.

import (
	"strings"

	"repro/internal/core"
)

type metricDef struct{ name, unit string }

// endToEnd is emitted by every workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"reopen_s", "s"},
	{"ops_per_s", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"short_p50_us", "us"},
	{"long_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"index_bytes_per_pos", "B"},
	{"heap_after_setup_mb", "MiB"},
}

// perLayer is emitted by every workload with -trace 1.
func perLayer() []metricDef {
	defs := []metricDef{
		{"rank.rank1_ns", "ns"}, {"rank.select1_ns", "ns"},
		{"wavelet.rank_ns", "ns"}, {"wavelet.access_ns", "ns"},
		{"fm.range_ns_per_char", "ns"}, {"fm.locate_ns", "ns"}, {"fm.build_ns_per_pos", "ns"},
		{"suffix.range_ns", "ns"}, {"suffix.build_ns_per_pos", "ns"},
		{"rmq.max_ns", "ns"}, {"prob.span_ns", "ns"},
		{"factor.transform_ns_per_pos", "ns"}, {"factor.expansion", "ratio"},
		{"ingest.view_search_delta_ns", "ns"}, {"ingest.view_search_compacted_ns", "ns"},
		{"ingest.put_ns", "ns"}, {"ingest.compact_ms", "ms"},
		{"ingest.wal_bytes_per_doc_byte", "ratio"}, {"ingest.replay_ms_per_doc", "ms"},
		{"ingest.compactions", "count"}, {"ingest.lost_acked_writes", "count"},
		{"ingest.put_p50_ms", "ms"}, {"ingest.put_p99_ms", "ms"},
		{"mapped.open_ns_per_doc", "ns"}, {"mapped.verify_ns_per_doc", "ns"},
		{"server.resp_bytes_per_op", "B"}, {"server.cache_hit_ratio", "ratio"}, {"server.shed_ratio", "ratio"},
		{"open.r1_p99_us", "us"}, {"open.r2_p99_us", "us"}, {"open.r3_p99_us", "us"}, {"open.r4_p99_us", "us"},
		{"open.r1_r3_failed_ratio", "ratio"}, {"open.r4_failed_ratio", "ratio"}, {"open.gen_late_p99_us", "us"}, {"open.max_rate_ok_rps", "1/s"},
		{"trace.overhead_ratio", "ratio"},
		{"listing.list_ns", "ns"}, {"listing.bytes_per_pos", "B"}, {"listing.build_ns_per_pos", "ns"},
	}
	for _, b := range core.BackendKinds() {
		for _, m := range []metricDef{
			{"core.%.search_ns", "ns"}, {"core.%.count_ns", "ns"}, {"core.%.shard_ns", "ns"}, {"core.%.build_ns_per_pos", "ns"},
			{"core.%.bytes_per_pos", "B"}, {"core.%.candidates_per_hit", "ratio"},
			{"core.%.suffix_steps_per_query", "count"}, {"core.%.allocs_per_op", "count"},
			{"core.%.decode_ns_per_doc", "ns"}, {"core.%.write_ns_per_doc", "ns"}, {"core.%.file_bytes_per_pos", "B"},
			{"catalog.%.search_ns", "ns"}, {"catalog.%.self_ns", "ns"}, {"catalog.%.allocs_per_op", "count"},
			{"ingest.%.view_search_ns", "ns"}, {"ingest.%.self_ns", "ns"},
			{"server.%.handler_ns", "ns"}, {"server.%.self_ns", "ns"}, {"server.%.allocs_per_op", "count"},
			{"server.%.unaccounted_ratio", "ratio"},
			{"wire.%.socket_ns", "ns"}, {"wire.%.self_ns", "ns"},
		} {
			defs = append(defs, metricDef{layerName(m.name, b), m.unit})
		}
		if b != core.BackendApprox { // the ε-index cannot rank
			defs = append(defs, metricDef{layerName("core.%.topk_ns", b), "ns"})
		}
	}
	return defs
}

// layerName substitutes a backend kind for the % of a metric name pattern.
func layerName(pattern, backend string) string {
	return strings.Replace(pattern, "%", backend, 1)
}
