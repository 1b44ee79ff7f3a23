package core

import (
	"math"

	"repro/internal/fm"
)

// This file is the pre-execution query cost model: it prices a query from
// statistics the serving tier already holds — document count, total
// positions, shard count, the long-pattern blocking cap and the backend
// kind — without touching the index. The admission tier uses the estimate
// to refuse over-budget work *before* paying for it, so the model's job is
// to be cheap, monotone in the right variables, and within a bounded
// factor of the measured per-query obs.Cost counters, not to be exact.
//
// The per-backend constants are calibrated against the committed load
// measurements (BENCH_4/5/7.json): the plain backend pays binary-search
// probes with pattern-length comparisons, the compressed backend pays FM
// backward-search steps plus sampled-SA locates per surviving candidate,
// and the approx ε-index pays a locus descent linear in the pattern. See
// TestEstimateCalibration for the enforced estimate-vs-measured bound.

// QueryEstimate is the predicted resource cost of one query, in the same
// counters obs.Cost measures, plus the scalar Units the admission tier
// budgets on.
type QueryEstimate struct {
	// Candidates is the predicted number of candidate positions examined.
	Candidates int64
	// SuffixSteps is the predicted number of suffix-structure steps.
	SuffixSteps int64
	// IndexBytes is the predicted bytes of index data read.
	IndexBytes int64
	// Units is the scalar admission currency: CostUnits over the predicted
	// counters. Roughly proportional to wall time on the reference machine
	// (1 unit ≈ one suffix-structure step).
	Units float64
}

// Cost-unit weights: one suffix-structure step is the currency; candidate
// examinations carry extra per-candidate arithmetic, index bytes are
// amortised over cache lines, and every fan-out shard pays a goroutine
// handoff. Shared by estimates and by measured obs.Cost via CostUnits, so
// the two are directly comparable.
const (
	unitsPerCandidate  = 4.0
	unitsPerIndexByte  = 1.0 / 64
	unitsPerMergeCmp   = 2.0
	unitsPerShard      = 16.0
	unitsPerSuffixStep = 1.0
)

// plainDirPositions is the document length, in positions, from which the
// plain backend's suffix text is long enough to carry the two-byte bucket
// directory for the protein alphabet (w² ≤ n/4 with w = 21, at the
// transform's expansion).
const plainDirPositions = 512

// CostUnits collapses resource counters into the scalar admission currency.
// The serving tier feeds it measured obs.Cost counters to compare actual
// spend against the pre-execution estimate.
func CostUnits(candidates, suffixSteps, indexBytes, mergeComparisons, shards int64) float64 {
	return unitsPerSuffixStep*float64(suffixSteps) +
		unitsPerCandidate*float64(candidates) +
		unitsPerIndexByte*float64(indexBytes) +
		unitsPerMergeCmp*float64(mergeComparisons) +
		unitsPerShard*float64(shards)
}

// EstimateQuery prices one query against a collection of docs documents
// holding positions total positions, served by shards fan-out shards on the
// given backend, for a pattern of patternLen bytes. longCap is the
// long-pattern blocking cap the collection was built with (<= 0 means
// DefaultLongCap). The estimate is independent of tau: the threshold moves
// which candidates survive, not how many the structures must examine, and
// an admission decision cannot afford a data-dependent answer.
func EstimateQuery(spec BackendSpec, docs, positions, shards, longCap, patternLen int) QueryEstimate {
	if docs <= 0 || patternLen <= 0 {
		return QueryEstimate{}
	}
	if positions < docs {
		positions = docs
	}
	if shards <= 0 {
		shards = 1
	}
	longCap = EffectiveLongCap(longCap)
	d := float64(docs)
	m := float64(patternLen)
	// Patterns beyond the blocking cap fall off the O(m + log n) path; the
	// structures only ever walk longCap characters of them.
	if patternLen > longCap {
		m = float64(longCap)
	}
	avgLen := float64(positions) / d

	// Candidate survival: every extra pattern character cuts the surviving
	// candidate set roughly by the alphabet's branching factor. Capped at 8
	// characters — beyond that the prediction is already ≪ 1 per document
	// and the decay constant stops being data-independent.
	decay := math.Pow(4, math.Min(m, 8))
	candidates := float64(positions) / decay
	if candidates < 1 {
		candidates = 1
	}

	var steps, bytes float64
	switch spec.Kind {
	case BackendCompressed:
		// FM backward search: ≤ m rank steps per document, plus an LF-walk
		// of half the SA sample rate per surviving candidate to locate it.
		steps = d*m + candidates*fm.DefaultSampleRate/2
		bytes = steps * 15
	case BackendApprox:
		// ε-index locus descent: linear in the pattern per document, with
		// the O(1) over-long exit; the succinct layout touches few bytes.
		steps = d * m
		bytes = steps * 2
	default:
		// Plain suffix array: per document two binary searches over the
		// rows that can match. A document long enough for the two-byte
		// bucket directory (suffix.Text) answers m ≤ 2 from the table and
		// searches one bucket, about 1/256 of its rows, for longer
		// patterns; a shorter one searches all of them. Each RMQ pop of
		// Algorithm 2 is a step too, and since it pops only entries above
		// τ it examines about an eighth of the positions per pattern
		// character, not the quarter a full range visits.
		rows := avgLen
		if avgLen >= plainDirPositions {
			rows = avgLen / 256
			if patternLen <= 2 {
				rows = 0
			}
		}
		probes := d * 2 * math.Log2(rows+1)
		candidates = max(1, float64(positions)/math.Pow(8, math.Min(m, 8)))
		steps = probes + candidates
		bytes = probes*(4+m) + candidates*plainCandidateBytes
	}
	est := QueryEstimate{
		Candidates:  int64(math.Ceil(candidates)),
		SuffixSteps: int64(math.Ceil(steps)),
		IndexBytes:  int64(math.Ceil(bytes)),
	}
	est.Units = CostUnits(est.Candidates, est.SuffixSteps, est.IndexBytes, 0, int64(shards))
	return est
}
