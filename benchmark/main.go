// Command benchmark is the repository's one performance benchmark: it boots
// the real serving stack in-process, drives one named workload over real
// sockets, checks every answer against the index-free oracle and prints
// every metric by name. See README.md in this directory and BENCHMARK.json
// at the repository root.
//
//	go run ./benchmark -workload query-plain -seed 1 -seconds 18 -trace 0
//	go run ./benchmark -workload query-plain -seed 1 -seconds 18 -trace 1 -trace-out spans.json
//	go run ./benchmark -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
)

// warmUp is the unmeasured lead-in of the time-driven workloads.
const warmUp = 2 * time.Second

var workloadNames = []string{"query-plain", "query-compressed-mmap", "open-hotkey", "ingest-churn"}

// runWorkload runs one workload end to end (trace off).
func runWorkload(name string, e *env) (*result, error) {
	switch name {
	case "query-plain":
		return runStaticQuery(e, plainSpec, false)
	case "query-compressed-mmap":
		return runStaticQuery(e, compressedSpec, true)
	case "open-hotkey":
		return runOpenHotkey(e)
	case "ingest-churn":
		return runIngestChurn(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport keeps exactly the metrics of defs, in their units. A missing
// or non-finite value is an error: a metric that could not be measured must
// not pass for one that was.
func buildReport(r *result, defs []metricDef) (*report, error) {
	rep := &report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// run executes one benchmark invocation in a scratch directory of its own.
func run(workload string, seed int64, seconds int, trace bool, traceOut string) (*report, error) {
	dir, err := runDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, sc: fullScale, dir: dir, warm: warmUp, measure: time.Duration(seconds) * time.Second}
	if !trace {
		r, err := runWorkload(workload, e)
		if err != nil {
			return nil, err
		}
		return buildReport(r, endToEnd)
	}
	if !slices.Contains(workloadNames, workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	r, err := runTraced(e, traceOut)
	if err != nil {
		return nil, err
	}
	return buildReport(r, perLayer())
}

func printTable(w *os.File, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: query-plain, query-compressed-mmap, open-hotkey or ingest-churn")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 18, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced per-layer run")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON")
	check := flag.Bool("check", false, "run every workload twice and compare each end-to-end metric against its bound in BENCHMARK.json")
	flag.Parse()
	// The container has two cores; pinning makes the figure part of the
	// record instead of an accident of the host.
	runtime.GOMAXPROCS(2)
	fmt.Fprintf(os.Stderr, "benchmark: %s GOMAXPROCS=%d NumCPU=%d backends=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), core.BackendKinds())

	if *check {
		if err := runCheck(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		os.Exit(2)
	}
	rep, err := run(*workload, *seed, *seconds, *trace != 0, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
