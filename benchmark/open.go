package main

// open-hotkey: plain, compressed and approx collections of the corpus behind
// one server with the result cache on and one API-key tenant, offered
// open-loop Poisson traffic at four fixed rates.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

const (
	// Three rates below capacity and one above it.
	openSteps = 4
	// An open-loop step may drain requests that were due before its end for
	// this long; whatever is still unsent then has expired.
	drainGrace = 250 * time.Millisecond
	// latencyLimit is the open-loop service objective on p99 from due time.
	latencyLimit = 10 * time.Millisecond
	// hotCacheEntries sizes the result cache between the workload's two
	// working sets: the 48 hot keys (16 tuples on 3 collections) fit with room
	// to spare, the ≈1150 cold keys do not, so nine requests in ten hit and
	// almost every cold one misses. At the server's default of 1024 entries
	// all but a sliver of the mix would fit: one request in seventy would
	// miss, and the 99th percentile would sit on the edge between hits and
	// misses, where it reports which of the two it happened to land in.
	hotCacheEntries = 128
)

// openRates are R1..R4 in requests/s: 0.25, 0.5, 0.75 and 1.5 times the
// closed-loop capacity of the open-hotkey mix measured at the commit that
// introduced this benchmark (27 000 requests/s, see README.md), rounded to
// two digits. They are constants on purpose: a capacity gain must show as a
// better max_rate_ok_rps, not as a moved goalpost.
var openRates = [openSteps]float64{6800, 14000, 20000, 41000}

// openHotkeyConfig is the server configuration of the open-loop workload:
// the result cache on and one API-key tenant without limits.
func openHotkeyConfig() server.Config {
	return server.Config{CacheEntries: hotCacheEntries, Tenants: []server.TenantConfig{{Name: benchTenant, Key: benchKey}}}
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due  time.Duration
	coll uint8
	tup  uint16
}

// openMix is the traffic make-up of the open-loop workload: per collection
// the same hot set — the two lowest-ranked searches of every pattern length,
// so every seed's hot traffic has the same shape — and the cold tuples the
// other tenth of the requests draw from. Cold requests leave out m ≤ 3: on
// the compressed backend one such miss holds a connection for ≈16 ms, two
// hundred times the median, and with two connections every percentile above
// the median then counts coincidences of such misses instead of measuring
// the server. query-compressed-mmap measures that cost directly.
type openMix struct {
	hot, cold []uint16
}

func newOpenMix(pool []tuple, hotSize int) openMix {
	var m openMix
	byRank := make([]int, len(pool))
	for i := range byRank {
		byRank[i] = i
	}
	sort.SliceStable(byRank, func(a, b int) bool { return pool[byRank[a]].rank < pool[byRank[b]].rank })
	taken := make(map[int]int) // pattern length → hot tuples chosen
	for _, i := range byRank {
		t := &pool[i]
		switch {
		case t.op == opSearch && taken[len(t.pattern)] < hotSize/len(patternLens):
			taken[len(t.pattern)]++
			m.hot = append(m.hot, uint16(i))
		case len(t.pattern) > 3:
			m.cold = append(m.cold, uint16(i))
		}
	}
	return m
}

// schedule draws Poisson arrivals at rate for span; nine requests in ten go
// to the hot set of a collection drawn uniformly.
func (m openMix) schedule(rng *rand.Rand, rate float64, span time.Duration, ncoll int) []arrival {
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < span.Seconds(); t += rng.ExpFloat64() / rate {
		a := arrival{due: time.Duration(t * 1e9), coll: uint8(rng.Intn(ncoll))}
		if rng.Float64() < 0.9 {
			a.tup = m.hot[rng.Intn(len(m.hot))]
		} else {
			a.tup = m.cold[rng.Intn(len(m.cold))]
		}
		out = append(out, a)
	}
	return out
}

// openStep is what one fixed-rate step measured. Its window's latencies run
// from the instant a request was due, so time spent waiting for a free
// connection — or for a late generator — counts; its duration runs until the
// last reply, so an overloaded step's throughput is what the server did.
// service times the same requests from the instant they were sent.
type openStep struct {
	window
	service            window
	due, expired       int
	late               []float64 // µs between due and sent
	lateEarly, lateEnd []float64 // the same, first and last quarter of the step
}

// openLoad is an open-loop traffic source bound to one booted stack.
type openLoad struct {
	conns []*client
	in    *inputs
	st    *stack
	paths [][]string // per collection, per pool tuple
}

// fire sends one schedule and waits for it. The two connections claim the
// arrivals in order; each waits for its arrival's due time, so a busy
// connection delays the requests behind it, never the schedule.
func (l *openLoad) fire(plan []arrival, span time.Duration) *openStep {
	type done struct {
		sent, end time.Duration
		ok        bool
	}
	results := make([]done, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	epoch := time.Now()
	for _, c := range l.conns {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				a := plan[i]
				if wait := a.due - time.Since(epoch); wait > 0 {
					preciseSleep(wait)
				}
				sent := time.Since(epoch)
				if sent > span+drainGrace {
					return // this and every later arrival expire unsent
				}
				ref := l.st.colls[a.coll]
				ok := c.query(l.paths[a.coll][a.tup], &l.in.pool[a.tup], &l.in.truth[a.tup], ref.approx)
				results[i] = done{sent: sent, end: time.Since(epoch), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	o := &openStep{due: len(plan)}
	o.dur, o.cpu = time.Since(epoch), cpuTime()-cpu0
	for i, d := range results {
		a := plan[i]
		if d.end == 0 {
			o.expired++
			continue
		}
		late := float64(d.sent-a.due) / 1e3
		o.late = append(o.late, late)
		switch a.due * 4 / span {
		case 0:
			o.lateEarly = append(o.lateEarly, late)
		case 3:
			o.lateEnd = append(o.lateEnd, late)
		}
		band := l.in.pool[a.tup].band
		o.add(sample{lat: d.end - a.due, band: band, ok: d.ok})
		o.service.add(sample{lat: d.end - d.sent, band: band, ok: d.ok})
	}
	return o
}

// openRate is one rate's steps, one per round.
type openRate struct {
	steps []*openStep
}

// windows are the steps' figures with latency from due time, services the
// same with latency from the instant a request was sent.
func (r *openRate) windows() []window {
	ws := make([]window, len(r.steps))
	for k, o := range r.steps {
		ws[k] = o.window
	}
	return ws
}

func (r *openRate) services() []window {
	ws := make([]window, len(r.steps))
	for k, o := range r.steps {
		ws[k] = o.service
	}
	return ws
}

// totals sums what was due, sent, answered wrongly and left unsent.
func (r *openRate) totals() (due, sent, failed, expired int) {
	for _, o := range r.steps {
		due, sent, failed, expired = due+o.due, sent+o.attempted, failed+o.failed, expired+o.expired
	}
	return
}

// ok is the service objective: hardly a request lost, the 99th percentile
// from due time within the limit, and no backlog growing through the steps —
// which would show as requests leaving ever later than they were due.
func (r *openRate) ok() bool {
	due, _, failed, expired := r.totals()
	if due == 0 || float64(failed+expired) > 0.001*float64(due) {
		return false
	}
	if over(r.windows(), p99) > float64(latencyLimit.Microseconds()) {
		return false
	}
	var growth []float64
	for _, o := range r.steps {
		growth = append(growth, median(o.lateEnd)-median(o.lateEarly))
	}
	return median(growth) <= 1000
}

// runOpenHotkey is the open-hotkey workload.
func runOpenHotkey(e *env) (*result, error) {
	in := e.inputs(true)
	st, setupS, err := setUp(e, func(dir string) (*stack, error) {
		return bootStatic(dir, genCorpus(e.seed, e.sc), allSpecs, false, openHotkeyConfig())
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	r := newResult()
	r.metrics["setup_s"] = setupS
	r.metrics["heap_after_setup_mb"] = heapInuseMB()
	r.metrics["index_bytes_per_pos"] = st.indexBytesPerPos()
	if err := openHotkeyLoad(e, st, in, r); err != nil {
		return nil, err
	}
	if r.metrics["reopen_s"], err = medianReopen(e.reps(), func() (time.Duration, error) { return st.reopenStatic(in) }); err != nil {
		return nil, err
	}
	return r, nil
}

// openHotkeyLoad offers the open-loop traffic to a booted stack. The measured
// phase is a number of rounds, each offering R1 to R4 for an equal share of
// the round: every rate meets every stretch of the run, and a rate's figures
// are medians over its steps (see reduce), so a machine that is slow for a
// few seconds slows one step of every rate instead of all of one rate's.
func openHotkeyLoad(e *env, st *stack, in *inputs, r *result) error {
	rng := rand.New(rand.NewSource(e.seed ^ 0x0be1))
	mix := newOpenMix(in.pool, e.sc.hot)
	conns, closeAll, err := dialAll(st.addr, benchKey)
	if err != nil {
		return err
	}
	defer closeAll()
	load := &openLoad{conns: conns, in: in, st: st}
	for _, ref := range st.colls {
		load.paths = append(load.paths, pathsFor(in.pool, ref))
	}
	plan := func(rate float64, span time.Duration) []arrival {
		return mix.schedule(rng, rate, span, len(st.colls))
	}
	// Before the clock starts: every tuple of the mix once against every
	// collection, so each is checked whatever the schedules draw, then the
	// usual lead-in at R2, which leaves the cache in its steady state.
	var everything []arrival
	for c := range st.colls {
		for _, i := range append(append([]uint16(nil), mix.cold...), mix.hot...) {
			everything = append(everything, arrival{coll: uint8(c), tup: i})
		}
	}
	if o := load.fire(everything, time.Minute); o.failed > 0 {
		return fmt.Errorf("open-hotkey: %d wrong answers on the first pass over the mix", o.failed)
	}
	load.fire(plan(openRates[1], e.warm), e.warm)

	var rates [openSteps]openRate
	span := e.measure / (openSteps * sliceCount)
	for round := 0; round < sliceCount; round++ {
		for k, rate := range openRates {
			rates[k].steps = append(rates[k].steps, load.fire(plan(rate, span), span))
		}
	}
	for k := range rates {
		due, sent, failed, expired := rates[k].totals()
		ws := rates[k].windows()
		fmt.Fprintf(os.Stderr, "open-hotkey R%d=%.0f/s: due %d sent %d failed %d expired %d in %d steps; from due p50 %.0f us p99 %.0f us; %.0f correct replies/s\n",
			k+1, openRates[k], due, sent, failed, expired, len(ws), over(ws, p50), over(ws, p99), over(ws, readsPerS))
		// An operation is a request that was sent; it fails by a wrong answer.
		// An arrival that expired unsent is the generator's doing, not the
		// server's answer, and how many do depends on how fast the box is today
		// against rates that are constants: it is reported per layer, and it
		// costs the rate its place in max_rate_ok_rps.
		r.attempted += sent
		r.failed += failed
	}

	// End to end: everything at R4, which is offered above capacity, so both
	// connections are always busy, the dispatcher never sleeps, and what
	// completes is what the server can do: its throughput, its CPU per
	// request and the time from sending a request to its reply. Latency from
	// due time below capacity is what an open loop is for, and every rate's is
	// reported per layer — but it cannot carry a bound on this box: half of
	// the median at R1 is the generator waking up late, and at R2 the
	// two-connection queue doubles the median when the machine runs a fifth
	// slower.
	r4, served := rates[3].windows(), rates[3].services()
	r.metrics["query_p50_us"] = over(served, p50)
	r.metrics["query_p99_us"] = over(served, p99)
	r.metrics["short_p50_us"] = over(served, shortP50)
	r.metrics["long_p50_us"] = over(served, longP50)
	r.metrics["ops_per_s"] = over(r4, readsPerS)
	r.metrics["cpu_us_per_op"] = over(r4, cpuPerOp)

	// Per layer: every rate's tail, the generator's own lateness, and the
	// server's view of the same traffic.
	best := 0.0
	for k := range rates {
		r.metrics[fmt.Sprintf("open.r%d_p99_us", k+1)] = over(rates[k].windows(), p99)
		if rates[k].ok() {
			best = openRates[k]
		}
	}
	r.metrics["open.max_rate_ok_rps"] = best
	var dueBelow, lostBelow int
	for k := range rates {
		due, _, failed, expired := rates[k].totals()
		if k == openSteps-1 {
			r.metrics["open.r4_failed_ratio"] = float64(failed+expired) / float64(due)
		} else {
			dueBelow, lostBelow = dueBelow+due, lostBelow+failed+expired
		}
	}
	r.metrics["open.r1_r3_failed_ratio"] = float64(lostBelow) / float64(dueBelow)
	var late []float64
	for _, o := range rates[0].steps {
		late = append(late, quantile(o.late, 0.99))
	}
	r.metrics["open.gen_late_p99_us"] = median(late)
	return serverCounters(r, conns[0])
}

// serverCounters reads the cache and admission counters of /v1/stats.
func serverCounters(r *result, c *client) error {
	status, body, err := c.do("GET", "/v1/stats", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: status %d: %v", status, err)
	}
	var stats struct {
		Cache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
		Tenants []server.TenantSnapshot `json:"tenants"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("GET /v1/stats: %w", err)
	}
	r.metrics["server.cache_hit_ratio"] = stats.Cache.Hits / math.Max(1, stats.Cache.Hits+stats.Cache.Misses)
	var requests, shed int64
	for _, t := range stats.Tenants {
		requests += t.Requests
		shed += t.ShedOverQuota + t.ShedOverBudget + t.ShedOverCapacity
	}
	r.metrics["server.shed_ratio"] = float64(shed) / math.Max(1, float64(requests))
	return nil
}
