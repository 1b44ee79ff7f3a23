package main

// ingest-churn: one closed-loop writer beside one closed-loop reader against
// a primary, then the store is abandoned and what a fresh process would find
// on disk is checked against the acknowledged writes.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/ustring"
)

// tailWrites stay in the WAL when the ingest store is abandoned: fewer
// pending documents than the compaction threshold even if every one replaces
// a base document (one delta document plus one tombstone each).
const tailWrites = 24

// churnModel is the acked-write model: what the store must hold, given that
// every write was acknowledged before the next was sent.
type churnModel struct {
	live map[string]int // document id → index into the corpus
}

func churnID(k int) string { return fmt.Sprintf("w%03d", k) }

// reference lists the model's documents in the store's document order: the
// lexicographic order of their ids.
func (m *churnModel) reference(docs []*ustring.String) (ids []string, ref []*ustring.String) {
	for id := range m.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ref = append(ref, docs[m.live[id]])
	}
	return ids, ref
}

// churnWriter is the closed-loop writer: it walks the rotating ids, deleting
// a live document one time in five and putting a document otherwise.
type churnWriter struct {
	c      *client
	store  *ingest.Store // read for back-pressure only, see settle
	rng    *rand.Rand
	model  *churnModel
	bodies [][]byte // text encodings of the second half of the corpus
	base   int      // corpus index of bodies[0]
	ids    int
	n      int
}

func (w *churnWriter) step(epoch time.Time, allowDelete bool) sample {
	id := churnID(w.n % w.ids)
	w.n++
	path := "/v1/collections/" + core.BackendPlain + "/documents/" + id
	start := time.Since(epoch)
	var status int
	var err error
	if _, live := w.model.live[id]; live && allowDelete && w.rng.Float64() < 0.2 {
		status, _, err = w.c.do("DELETE", path, nil)
		delete(w.model.live, id)
	} else {
		j := w.rng.Intn(len(w.bodies))
		status, _, err = w.c.do("PUT", path, w.bodies[j])
		w.model.live[id] = w.base + j
	}
	end := time.Since(epoch)
	return sample{end: end, lat: end - start, write: true, ok: err == nil && status == http.StatusOK}
}

// foldTimeout bounds how long the writer waits for one background fold.
const foldTimeout = 30 * time.Second

// pending is the store's unfolded work: delta documents plus tombstones.
func (w *churnWriter) pending() int {
	for _, cs := range w.store.Status() {
		if cs.Name == core.BackendPlain {
			return cs.DeltaDocs + cs.Tombstones
		}
	}
	return 0
}

// settle makes the writer a client that honours back-pressure: once the
// store's pending work has crossed its compaction threshold — which is when
// the store wakes its background compactor — the writer waits for the fold
// before it writes again. The fold is optimistic and starts over whenever a
// write lands while it runs; a writer that never pauses starves it for good,
// and the futile attempts then cost the reader two thirds of its throughput
// and make every figure of the run a matter of scheduling luck (README.md
// has the numbers).
func (w *churnWriter) settle() error {
	if w.pending() < w.store.Options().CompactThreshold {
		return nil
	}
	for deadline := time.Now().Add(foldTimeout); w.pending() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest-churn: background compaction did not finish within %v of the writer pausing", foldTimeout)
		}
	}
	return nil
}

// runIngestChurn is the ingest-churn workload.
func runIngestChurn(e *env) (*result, error) {
	// The reader's answers are judged after the run, against documents of the
	// writer's choosing, so the pool's oracle is not needed: corpus and pool
	// are generated here unless the caller has them already.
	var docs []*ustring.String
	var pool []tuple
	if e.in != nil {
		docs, pool = e.in.docs, e.in.pool
	} else {
		docs = genCorpus(e.seed, e.sc)
		pool = genPool(e.seed, docs, e.sc)
	}
	seeded := e.sc.docs / 2
	st, setupS, err := setUp(e, func(dir string) (*stack, error) {
		cat, colls, err := buildCatalog(genCorpus(e.seed, e.sc)[:seeded], []core.BackendSpec{plainSpec})
		if err != nil {
			return nil, err
		}
		return bootIngest(dir, cat, colls, 0, server.Config{CacheEntries: -1})
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	r := newResult()
	r.metrics["setup_s"] = setupS
	r.metrics["heap_after_setup_mb"] = heapInuseMB()
	r.metrics["index_bytes_per_pos"] = st.indexBytesPerPos()

	model := &churnModel{live: make(map[string]int)}
	for i := 0; i < seeded; i++ {
		model.live[fmt.Sprintf("doc-%06d", i)] = i // ingest's ids for seeded documents
	}
	var bodies [][]byte
	for _, d := range docs[seeded:] {
		var b bytes.Buffer
		if err := ustring.Marshal(&b, d); err != nil {
			return nil, err
		}
		bodies = append(bodies, b.Bytes())
	}
	paths := pathsFor(pool, st.colls[0])
	// The document set changes under the reader, so its answers are checked
	// for shape here and against the oracle after the reopen below.
	judge := func(i, count int, hits []hit) bool {
		return pool[i].op == opCount || (count == len(hits) && (pool[i].op == opTopK || sortedByPos(hits)))
	}

	// Warm-up is one rotation of the writer's ids rather than a fixed time,
	// so that the measured phase starts from the stationary document count
	// (five ids in six live) instead of growing towards it. The reader reads
	// throughout; the writer announces the measured phase when it gets there.
	conns, closeAll, err := dialAll(st.addr, "")
	if err != nil {
		return nil, err
	}
	defer closeAll()
	w := &churnWriter{c: conns[0], store: st.store, rng: rand.New(rand.NewSource(e.seed ^ 0xc4a2)), model: model, bodies: bodies, base: seeded, ids: e.sc.churnIDs}
	var until atomic.Int64
	until.Store(math.MaxInt64)
	measureFrom := make(chan time.Duration, 1)
	var writes, reads []sample
	var writerErr error
	epoch := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for w.n < w.ids && writerErr == nil {
			if w.rng.Float64() < 1.0/6 {
				w.n++
				continue
			}
			w.step(epoch, false)
			writerErr = w.settle()
		}
		if writerErr != nil { // no measured phase: release the reader and the clock
			until.Store(0)
			measureFrom <- -1
			return
		}
		from := time.Since(epoch)
		until.Store(int64(from + e.measure))
		measureFrom <- from
		for writerErr == nil && time.Since(epoch) < from+e.measure {
			writes = append(writes, w.step(epoch, true))
			writerErr = w.settle()
		}
	}()
	go func() {
		defer wg.Done()
		reads = readLoop(conns[1], pool, paths, 0, epoch, &until, judge)
	}()
	var clock sliceClock
	if from := <-measureFrom; from >= 0 {
		clock.run(epoch, from, e.measure)
	}
	wg.Wait()
	if writerErr != nil {
		return nil, writerErr
	}
	ws := clock.cut(reads, writes)
	reduce(r, ws)
	r.metrics["ingest.put_p50_ms"] = over(ws, func(w *window) float64 { return median(w.put) })
	r.metrics["ingest.put_p99_ms"] = over(ws, func(w *window) float64 { return quantile(w.put, 0.99) })

	// Fold what is pending, then leave a short, fixed tail of acknowledged
	// writes in the WAL so the reopen below replays a log, not just a
	// checkpoint.
	if status, _, err := conns[0].do("POST", "/v1/compact?collection="+core.BackendPlain, nil); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/compact: status %d: %v", status, err)
	}
	for i := 0; i < tailWrites; i++ {
		r.attempted++
		if s := w.step(epoch, false); !s.ok {
			r.failed++
		}
	}
	_, _, compactions := st.store.Counters()
	r.metrics["ingest.compactions"] = float64(compactions)

	// Abandon: the listener goes away, the store is neither flushed nor
	// closed. Everything acknowledged must be on disk already.
	st.stopListening()
	ids, refDocs := model.reference(docs)
	grid := []tuple{pool[probeOf(pool, nil)]} // the first answer after a reopen, then every eighth tuple
	for i := 0; i < len(pool); i += 8 {
		grid = append(grid, pool[i])
	}
	want := oracleAll(refDocs, grid, false)
	lost, gridFailed, checked := 0, 0, false
	reopen := func() (time.Duration, error) {
		begin := time.Now()
		st2, err := ingest.Open(st.cat, ingestOptions(st.walDir, 0))
		if err != nil {
			return 0, err
		}
		defer st2.Close()
		v, ok := st2.Get(core.BackendPlain)
		if !ok || !checkDirect(v, &grid[0], &want[0], false) {
			return 0, fmt.Errorf("ingest-churn: first answer after reopen is wrong")
		}
		elapsed := time.Since(begin)
		if checked {
			return elapsed, nil
		}
		// Once, off the clock: every acknowledged document is there, no
		// deleted one came back, and the whole grid answers like the model.
		checked = true
		for _, id := range ids {
			if _, ok := v.DocNumber(id); !ok {
				lost++
			}
		}
		if v.Docs() > len(ids) {
			lost += v.Docs() - len(ids)
		}
		for i := range grid {
			r.attempted++
			if !checkDirect(v, &grid[i], &want[i], false) {
				gridFailed++
			}
		}
		return elapsed, nil
	}
	if r.metrics["reopen_s"], err = medianReopen(e.reps(), reopen); err != nil {
		return nil, err
	}
	r.failed += gridFailed + lost
	r.metrics["ingest.lost_acked_writes"] = float64(lost)
	return r, nil
}
