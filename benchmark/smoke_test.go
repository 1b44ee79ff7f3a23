package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// smokeScale shrinks every dimension: the test checks that the benchmark
// runs, verifies and names its metrics, never how fast anything is.
var smokeScale = scale{
	docs: 8, docLen: 300, pool: 64, hot: 8, churnIDs: 16,
	ladderPasses: map[string]int{"plain": 2, "compressed": 2, "approx": 2},
	microCalls:   50,
	listingN:     600,
}

func smokeEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 1, sc: smokeScale, dir: t.TempDir(), warm: 50 * time.Millisecond, measure: 200 * time.Millisecond}
}

// checkReport asserts that a report carries exactly the metrics the spec
// lists, each once (a map cannot hold a name twice), finite, in the spec's
// unit, and that no operation failed.
func checkReport(t *testing.T, rep *report, want []metricSpec) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s of BENCHMARK.json was not emitted", m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v, want a finite value", m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, err := runWorkload(w.Name, smokeEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := buildReport(r, endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, spec.EndToEnd)
		})
	}
	t.Run("ladder", func(t *testing.T) {
		e := smokeEnv(t)
		e.measure *= 4 // the traced run gives its two workloads a quarter each
		out := filepath.Join(e.dir, "spans.json")
		r, err := runTraced(e, out)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := buildReport(r, perLayer())
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, spec.PerLayer)
	})
}
