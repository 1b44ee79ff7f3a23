package main

// Single-layer measurements below and beside the ladder: the succinct
// primitives the compressed backend is made of, the suffix/RMQ/prefix-sum
// primitives of the plain one, index construction and persistence, the
// ingest store's write path, and the paper's listing index.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/listing"
	"repro/internal/mapped"
	"repro/internal/prob"
	"repro/internal/rmq"
	"repro/internal/suffix"
	"repro/internal/ustring"
	"repro/internal/wavelet"
)

const (
	microBatches = 21 // batches per primitive; the median batch is reported
	buildReps    = 5
	persistDocs  = 8 // documents per backend in the persistence measurements
)

// sink keeps the compiler from discarding a measured call.
var sink int

// perCall times batches of calls and returns the median cost of one call in
// nanoseconds. The primitives cost less than reading the clock, so they are
// never timed one by one.
func perCall(calls int, f func(i int)) float64 {
	var per []float64
	for b := 0; b < microBatches; b++ {
		begin := time.Now()
		for i := 0; i < calls; i++ {
			f(i)
		}
		per = append(per, float64(time.Since(begin))/float64(calls))
	}
	return median(per)
}

// medianNs times f reps times and returns the median in nanoseconds.
func medianNs(reps int, f func()) float64 {
	var v []float64
	for i := 0; i < reps; i++ {
		begin := time.Now()
		f()
		v = append(v, float64(time.Since(begin)))
	}
	return median(v)
}

func runMicro(e *env, in *inputs, r *result) error {
	if err := microPrimitives(e, in, r); err != nil {
		return err
	}
	if err := microPersistence(e, in, r); err != nil {
		return err
	}
	if err := microIngest(e, in, r); err != nil {
		return err
	}
	return microListing(e, r)
}

// microPrimitives measures rank → wavelet → fm and suffix/rmq/prob/factor
// over document 0's transformed text.
func microPrimitives(e *env, in *inputs, r *result) error {
	rng := rand.New(rand.NewSource(e.seed ^ 0x1ade))
	n := e.sc.microCalls
	doc := in.docs[0]
	var tr *factor.Transformed
	var err error
	r.metrics["factor.transform_ns_per_pos"] = medianNs(buildReps, func() { tr, err = factor.Transform(doc, tauMin) }) / float64(doc.Len())
	if err != nil {
		return err
	}
	r.metrics["factor.expansion"] = tr.ExpansionFactor()
	text := tr.T
	at := make([]int, n) // random text positions
	for i := range at {
		at[i] = rng.Intn(len(text))
	}

	wt := wavelet.New(text)
	bits := wt.Levels()[0]
	alphabet := wt.Alphabet()
	r.metrics["rank.rank1_ns"] = perCall(n, func(i int) { sink += bits.Rank1(at[i]) })
	ones := max(bits.Ones(), 1)
	r.metrics["rank.select1_ns"] = perCall(n, func(i int) { sink += bits.Select1(at[i] % ones) })
	r.metrics["wavelet.rank_ns"] = perCall(n, func(i int) { sink += wt.Rank(alphabet[i%len(alphabet)], at[i]) })
	r.metrics["wavelet.access_ns"] = perCall(n, func(i int) { sink += int(wt.Access(at[i])) })

	// Patterns for the range searches: the pool's, so lengths 2 to 24 in
	// their workload proportions.
	var fx *fm.Index
	r.metrics["fm.build_ns_per_pos"] = medianNs(buildReps, func() { fx, err = fm.New(text, fm.DefaultSampleRate) }) / float64(len(text))
	if err != nil {
		return err
	}
	chars := 0
	for i := 0; i < n; i++ {
		chars += len(in.pool[i%len(in.pool)].pattern)
	}
	r.metrics["fm.range_ns_per_char"] = perCall(n, func(i int) {
		lo, _, _ := fx.Range(in.pool[i%len(in.pool)].pattern)
		sink += lo
	}) * float64(n) / float64(chars)
	r.metrics["fm.locate_ns"] = perCall(n, func(i int) { sink += int(fx.Locate(at[i])) })

	var sx *suffix.Text
	r.metrics["suffix.build_ns_per_pos"] = medianNs(buildReps, func() { sx = suffix.New(text) }) / float64(len(text))
	r.metrics["suffix.range_ns"] = perCall(n, func(i int) {
		lo, _, _ := sx.Range(in.pool[i%len(in.pool)].pattern)
		sink += lo
	})

	// Range maxima over the per-position log probabilities, on windows of
	// up to 64 entries — the size of a short pattern's suffix range.
	rq := rmq.NewBlock(len(tr.LogP), func(i int) float64 { return tr.LogP[i] })
	r.metrics["rmq.max_ns"] = perCall(n, func(i int) { sink += rq.Max(at[i], min(at[i]+1+i%64, len(text)-1)) })
	pre := prob.NewPrefix(tr.LogP)
	r.metrics["prob.span_ns"] = perCall(n, func(i int) {
		if pre.Span(at[i], min(at[i]+1+i%24, len(text))) > -1 {
			sink++
		}
	})

	// Index construction per backend, over the first few documents.
	for _, spec := range allSpecs {
		var per []float64
		for _, d := range in.docs[:min(persistDocs, len(in.docs))] {
			begin := time.Now()
			if _, err := spec.Build(d, tauMin); err != nil {
				return err
			}
			per = append(per, float64(time.Since(begin))/float64(d.Len()))
		}
		r.metrics[layerName("core.%.build_ns_per_pos", spec.Kind)] = median(per)
	}
	return nil
}

// microPersistence measures writing, decoding and mapping index files.
func microPersistence(e *env, in *inputs, r *result) error {
	dir := filepath.Join(e.dir, "persist")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	docs := in.docs[:min(persistDocs, len(in.docs))]
	for _, spec := range allSpecs {
		var write, decode, size []float64
		for i, d := range docs {
			ix, err := spec.Build(d, tauMin)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			begin := time.Now()
			if _, err := ix.WriteTo(&buf); err != nil {
				return err
			}
			write = append(write, float64(time.Since(begin)))
			size = append(size, float64(buf.Len())/float64(d.Len()))
			begin = time.Now()
			if _, err := core.ReadBackend(bytes.NewReader(buf.Bytes())); err != nil {
				return err
			}
			decode = append(decode, float64(time.Since(begin)))
			if spec.Kind == core.BackendCompressed {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprint(i, ".idx")), buf.Bytes(), 0o644); err != nil {
					return err
				}
			}
		}
		r.metrics[layerName("core.%.write_ns_per_doc", spec.Kind)] = median(write)
		r.metrics[layerName("core.%.decode_ns_per_doc", spec.Kind)] = median(decode)
		r.metrics[layerName("core.%.file_bytes_per_pos", spec.Kind)] = median(size)
	}
	// The zero-copy path: map a format-4 envelope, then pay for the
	// checksums the open deliberately skips.
	var open, verify []float64
	for rep := 0; rep < buildReps; rep++ {
		for i := range docs {
			begin := time.Now()
			env, err := mapped.OpenFile(filepath.Join(dir, fmt.Sprint(i, ".idx")))
			if err != nil {
				return err
			}
			open = append(open, float64(time.Since(begin)))
			begin = time.Now()
			err = env.VerifyChecksums()
			verify = append(verify, float64(time.Since(begin)))
			env.Close()
			if err != nil {
				return err
			}
		}
	}
	r.metrics["mapped.open_ns_per_doc"] = median(open)
	r.metrics["mapped.verify_ns_per_doc"] = median(verify)
	return nil
}

// microIngest drives the store directly, without a server: half the corpus
// seeded as the base, the other half put one by one (fsynced, as always),
// then a restart that replays the log, then a fold.
func microIngest(e *env, in *inputs, r *result) error {
	half := len(in.docs) / 2
	seed := catalog.New(catalogOptions(false))
	if _, err := seed.AddWithSpec(core.BackendPlain, in.docs[:half], plainSpec); err != nil {
		return err
	}
	opts := ingestOptions(filepath.Join(e.dir, "ingest-micro"), -1) // no background compaction: the fold below is the measured one
	st, err := ingest.Open(seed, opts)
	if err != nil {
		return err
	}
	var puts []float64
	docBytes := 0
	for i, d := range in.docs[half:] {
		var b bytes.Buffer
		if err := ustring.Marshal(&b, d); err != nil {
			st.Close()
			return err
		}
		docBytes += b.Len()
		begin := time.Now()
		if _, err := st.Put(core.BackendPlain, churnID(i), d); err != nil {
			st.Close()
			return err
		}
		puts = append(puts, float64(time.Since(begin)))
	}
	r.metrics["ingest.put_ns"] = median(puts)
	r.metrics["ingest.wal_bytes_per_doc_byte"] = float64(st.Status()[0].WALBytes) / float64(docBytes)
	searches := func(st *ingest.Store) float64 {
		v, _ := st.Get(core.BackendPlain)
		var d []float64
		for i := range in.pool {
			t := &in.pool[i]
			if t.op != opSearch {
				continue
			}
			begin := time.Now()
			hits, err := v.Search(t.pattern, t.tau)
			d = append(d, float64(time.Since(begin)))
			sink += len(hits)
			if err != nil {
				r.failed++
			}
		}
		return median(d)
	}
	r.metrics["ingest.view_search_delta_ns"] = searches(st)
	if err := st.Close(); err != nil {
		return err
	}
	begin := time.Now()
	if st, err = ingest.Open(seed, opts); err != nil {
		return err
	}
	defer st.Close()
	r.metrics["ingest.replay_ms_per_doc"] = float64(time.Since(begin)) / 1e6 / float64(len(in.docs)-half)
	begin = time.Now()
	if _, err := st.Compact(core.BackendPlain); err != nil {
		return err
	}
	r.metrics["ingest.compact_ms"] = float64(time.Since(begin)) / 1e6
	r.metrics["ingest.view_search_compacted_ns"] = searches(st)
	return nil
}

// microListing builds the paper's second index — string listing, which the
// serving tier replaced with the catalog fan-out — over a small collection
// of short strings.
func microListing(e *env, r *result) error {
	docs := gen.Collection(gen.Config{N: e.sc.listingN, Theta: theta, Seed: e.seed})
	var ix *listing.Index
	var err error
	r.metrics["listing.build_ns_per_pos"] = medianNs(buildReps, func() { ix, err = listing.Build(docs, tauMin) }) / float64(e.sc.listingN)
	if err != nil {
		return err
	}
	r.metrics["listing.bytes_per_pos"] = float64(ix.Bytes()) / float64(e.sc.listingN)
	pats := gen.CollectionPatterns(docs, 64, 4, e.seed)
	var d []float64
	for i := 0; i < e.sc.microCalls; i++ {
		begin := time.Now()
		ids, err := ix.List(pats[i%len(pats)], 0.12)
		d = append(d, float64(time.Since(begin)))
		if err != nil {
			return err
		}
		sink += len(ids)
	}
	r.metrics["listing.list_ns"] = median(d)
	return nil
}
