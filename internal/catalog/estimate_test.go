package catalog

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/ustring"
)

// calibrationBound is the enforced estimate accuracy: per backend and
// pattern length, the pre-execution estimate must be within this factor of
// the measured obs.Cost, both ways. The estimator's job is admission
// control, not profiling — a bounded factor keeps the budget knob
// meaningful (a tenant's budget maps to real work within ~1.5 orders of
// magnitude) while leaving room for data-dependent variance the model
// deliberately ignores.
const calibrationBound = 32.0

// TestEstimateCalibration pins the cost model to reality: for each backend
// kind, the estimated cost units of a query must stay within
// calibrationBound of the units computed from the measured per-query cost
// counters. This is the test that fails if either the estimator or the
// backends drift apart.
func TestEstimateCalibration(t *testing.T) {
	// Serving-sized documents are long enough for the plain backend's
	// suffix bucket directory; the short generated ones are not.
	serving := make([]*ustring.String, 16)
	for i := range serving {
		serving[i] = gen.Single(gen.Config{N: 1200, Theta: 0.3, Seed: 919 + int64(i)})
	}
	for _, in := range []struct {
		name string
		docs []*ustring.String
		// plainBound, when set, is the tighter factor the plain backend's
		// estimate must meet on this input.
		plainBound float64
	}{
		{"short", gen.Collection(gen.Config{N: 500, Theta: 0.3, Seed: 907}), 0},
		{"serving", serving, 2},
	} {
		calibrate(t, in.name, in.docs, in.plainBound)
	}
}

// calibrate checks every backend's estimate against the measured cost over
// docs.
func calibrate(t *testing.T, input string, docs []*ustring.String, plainBound float64) {
	t.Helper()
	c := New(Options{TauMin: 0.1, Shards: 2})
	cols := map[string]*Collection{}
	for _, spec := range []core.BackendSpec{
		{Kind: core.BackendPlain},
		{Kind: core.BackendCompressed},
		{Kind: core.BackendApprox, Epsilon: 0.05},
	} {
		col, err := c.AddWithSpec(spec.Kind, docs, spec)
		if err != nil {
			t.Fatal(err)
		}
		cols[spec.Kind] = col
	}

	for kind, col := range cols {
		for _, m := range []int{2, 4, 8} {
			pats := gen.CollectionPatterns(docs, 4, m, int64(911+m))
			if len(pats) == 0 {
				t.Fatalf("%s %s m=%d: no patterns sampled", input, kind, m)
			}
			// Average over a few patterns: single queries on small
			// collections are noisy, the calibration target is the mean.
			var sumMeasured, sumEstimated float64
			for _, p := range pats {
				var cost obs.Cost
				q := core.Query{Op: core.OpSearch, Pattern: p, Tau: 0.2}
				if _, err := col.Exec(q, ExecOpts{Cost: &cost}); err != nil {
					t.Fatal(err)
				}
				snap := cost.Snapshot()
				sumMeasured += core.CostUnits(snap.Candidates, snap.SuffixSteps,
					snap.IndexBytes, snap.MergeComparisons, snap.ShardsTouched)
				sumEstimated += col.Estimate(len(p)).Units
			}
			measured := sumMeasured / float64(len(pats))
			estimated := sumEstimated / float64(len(pats))
			if estimated <= 0 || measured <= 0 {
				t.Fatalf("%s %s m=%d: degenerate units (est %.1f, measured %.1f)", input, kind, m, estimated, measured)
			}
			ratio := measured / estimated
			bound := calibrationBound
			if kind == core.BackendPlain && plainBound > 0 {
				bound = plainBound
			}
			if ratio > bound || ratio < 1/bound {
				t.Errorf("%s %s m=%d: measured %.0f vs estimated %.0f units (ratio %.2f, bound %v)",
					input, kind, m, measured, estimated, ratio, bound)
			}
			t.Logf("%s %s m=%d: measured %.0f, estimated %.0f, ratio %.2f",
				input, kind, m, measured, estimated, ratio)
		}
	}
}

// TestEstimateShape pins the properties admission control relies on:
// estimates are cheap, deterministic, monotone in collection size, and
// insensitive to pathological pattern lengths (the long-pattern cap).
func TestEstimateShape(t *testing.T) {
	small := gen.Collection(gen.Config{N: 100, Theta: 0.3, Seed: 31})
	large := gen.Collection(gen.Config{N: 1000, Theta: 0.3, Seed: 31})
	c := New(Options{TauMin: 0.1, Shards: 2})
	cs, err := c.Add("small", small)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.Add("large", large)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Estimate(4).Units >= cl.Estimate(4).Units {
		t.Errorf("estimate not monotone in collection size: small %v >= large %v",
			cs.Estimate(4).Units, cl.Estimate(4).Units)
	}
	if a, b := cl.Estimate(4), cl.Estimate(4); a != b {
		t.Errorf("estimate not deterministic: %+v vs %+v", a, b)
	}
	// A pattern beyond the blocking cap must not price as unbounded work.
	capped := cl.Estimate(1 << 20)
	atCap := cl.Estimate(1 << 21)
	if capped.Units != atCap.Units {
		t.Errorf("long-pattern estimates diverge past the cap: %v vs %v", capped.Units, atCap.Units)
	}
	if zero := cl.Estimate(0); zero.Units != 0 {
		t.Errorf("zero-length pattern priced at %v units", zero.Units)
	}
}
