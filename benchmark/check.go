package main

// -check: is the benchmark steady enough to carry its own bounds? Every
// workload runs twice, back to back, on the same code and the same seed, each
// run in a process of its own as the driver runs them; an end-to-end metric
// whose two readings differ by more than the bound BENCHMARK.json sets for it
// could not tell a regression from noise.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runChild runs one workload in a fresh process of this same program — a run
// that follows another in one process inherits its heap — and parses the
// result line.
func runChild(workload string, seed int64, seconds int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	return &rep, nil
}

func runCheck(seed int64, seconds int) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	disagree := 0
	fmt.Printf("%-22s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range spec.Workloads {
		var reps [2]*report
		for i := range reps {
			if reps[i], err = runChild(w.Name, seed, seconds); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !reps[i].Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.Name, reps[i].Failed, reps[i].Attempted)
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := reps[0].Metrics[m.Name].Value, reps[1].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Min(a, b)
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-22s %-22s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", w.Name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric pairs differ by more than their bound", disagree)
	}
	return nil
}
