// Package chaostest is a deterministic fault-injection harness for the
// replication/failover stack: a Cluster of in-process daemon-equivalent
// nodes (persistent store dir + real server over real HTTP) that a scripted
// scenario can kill abruptly, partition, restart and promote, while a
// seeded workload keeps a model of every acknowledged write.
//
// Determinism rules: every random choice flows from the scenario's seed;
// every wait is a condition poll against observable state (never a bare
// sleep used as synchronization); the final equivalence check replays the
// acknowledged-write model into a never-crashed reference store and demands
// bit-identical Search/TopK/Count answers over a pattern grid.
package chaostest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"context"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/ustring"
)

// Node is one cluster member: a store rooted in a persistent directory and
// a server over a real listener. A killed node's store is abandoned without
// Close — like SIGKILL, nothing gets a chance to flush — and the directory
// survives for a restart.
type Node struct {
	Name string
	Dir  string

	store    *ingest.Store
	srv      *server.Server
	ts       *httptest.Server
	follower *replica.Follower
	stopTail func()
	isolated atomic.Bool
	killed   bool
}

// URL is the node's current base URL (changes across restarts).
func (n *Node) URL() string { return n.ts.URL }

// Store exposes the node's ingest store for direct assertions.
func (n *Node) Store() *ingest.Store { return n.store }

// Isolate makes the node answer 503 to every request — a one-way network
// partition (inbound). Heal lifts it.
func (n *Node) Isolate() { n.isolated.Store(true) }
func (n *Node) Heal()    { n.isolated.Store(false) }

// Cluster is the scenario state: the nodes, the seeded document pool and
// the model of acknowledged writes.
type Cluster struct {
	t     *testing.T
	rng   *rand.Rand
	copts catalog.Options
	docs  []*ustring.String
	nodes map[string]*Node

	// Model maps collection → id → document for every write the cluster
	// ACKNOWLEDGED (HTTP 200). A write that was rejected or never answered
	// is not in the model; the equivalence check proves everything in the
	// model is readable.
	Model map[string]map[string]*ustring.String
}

// New seeds a cluster. All randomness (documents, workload choices) derives
// from seed, so a failing scenario replays exactly.
func New(t *testing.T, seed int64) *Cluster {
	t.Helper()
	return &Cluster{
		t:     t,
		rng:   rand.New(rand.NewSource(seed)),
		copts: catalog.Options{TauMin: 0.1, Shards: 3},
		docs:  gen.Collection(gen.Config{N: 2600, Theta: 0.3, Seed: seed}),
		nodes: make(map[string]*Node),
		Model: make(map[string]map[string]*ustring.String),
	}
}

// Node returns a member by name.
func (c *Cluster) Node(name string) *Node {
	n, ok := c.nodes[name]
	if !ok {
		c.t.Fatalf("chaostest: no node %q", name)
	}
	return n
}

// open builds a store over dir with the cluster's catalog options.
func (c *Cluster) open(dir string) *ingest.Store {
	c.t.Helper()
	st, err := ingest.Open(nil, ingest.Options{
		Dir:              dir,
		Catalog:          c.copts,
		CompactThreshold: -1,
		Logf:             c.t.Logf,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return st
}

// serve wraps the node's server with the partition gate and starts the
// listener.
func (c *Cluster) serve(n *Node) {
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.isolated.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		n.srv.ServeHTTP(w, r)
	}))
}

// StartPrimary boots a fresh primary node.
func (c *Cluster) StartPrimary(name string) *Node {
	c.t.Helper()
	n := &Node{Name: name, Dir: c.t.TempDir()}
	n.store = c.open(n.Dir)
	n.srv = server.NewIngest(n.store, server.Config{})
	c.serve(n)
	c.nodes[name] = n
	c.t.Cleanup(func() { c.stop(n) })
	return n
}

// startFollowerOn attaches a follower (and replica server) to an open store.
func (c *Cluster) startFollowerOn(n *Node, primaryURL string) {
	c.t.Helper()
	f, err := replica.NewFollower(replica.FollowerOptions{
		Primary:          primaryURL,
		Store:            n.store,
		PollInterval:     2 * time.Millisecond,
		DiscoverInterval: 10 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		Logf:             c.t.Logf,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	n.follower = f
	n.stopTail = func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			c.t.Error("chaostest: follower tailers did not stop")
		}
	}
	n.srv = server.NewReplica(f, server.Config{})
}

// StartFollower boots a fresh follower of another node.
func (c *Cluster) StartFollower(name, of string) *Node {
	c.t.Helper()
	n := &Node{Name: name, Dir: c.t.TempDir()}
	n.store = c.open(n.Dir)
	c.startFollowerOn(n, c.Node(of).URL())
	c.serve(n)
	c.nodes[name] = n
	c.t.Cleanup(func() { c.stop(n) })
	return n
}

// Kill stops a node the hard way: client connections are severed, the
// listener closed, tailers cancelled — and the store is ABANDONED, not
// closed, so nothing flushes that had not already reached disk. The
// directory stays for a restart.
func (c *Cluster) Kill(name string) {
	c.t.Helper()
	n := c.Node(name)
	if n.killed {
		c.t.Fatalf("chaostest: node %q killed twice", name)
	}
	n.killed = true
	// The listener goes first: a connection accepted between the two calls
	// would otherwise outlive the kill, and a promotion's fencing probe
	// could still reach the dead node through it.
	n.ts.Listener.Close()
	n.ts.CloseClientConnections()
	if n.stopTail != nil {
		n.stopTail()
		n.stopTail = nil
	}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	if resp, err := probe.Get(n.ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
		c.t.Fatalf("chaostest: killed node %s still answers (%s)", name, resp.Status)
	}
	c.t.Logf("chaostest: killed %s", name)
}

// RestartAsFollower reopens a killed node's directory — running the WAL
// recovery path, torn tails and all — and brings it back as a follower of
// another node. The epoch machinery does the rest: the node's stale local
// epoch forces a re-bootstrap from the new primary's snapshot.
func (c *Cluster) RestartAsFollower(name, of string) *Node {
	c.t.Helper()
	old := c.Node(name)
	if !old.killed {
		c.t.Fatalf("chaostest: restart of %q, which is still running", name)
	}
	n := &Node{Name: name, Dir: old.Dir}
	n.store = c.open(n.Dir)
	c.startFollowerOn(n, c.Node(of).URL())
	c.serve(n)
	c.nodes[name] = n
	c.t.Cleanup(func() { c.stop(n) })
	return n
}

// stop is the end-of-test cleanup for one node object; killed nodes were
// already torn down and their stores deliberately stay unclosed.
func (c *Cluster) stop(n *Node) {
	if n.killed {
		return
	}
	n.killed = true
	if n.stopTail != nil {
		n.stopTail()
	}
	n.ts.Close()
	n.store.Close()
}

// Promote POSTs /v1/promote on a follower node and requires success.
func (c *Cluster) Promote(name string) server.PromoteResponse {
	c.t.Helper()
	n := c.Node(name)
	resp, err := http.Post(n.URL()+"/v1/promote", "application/json", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("promote %s: status %d: %s", name, resp.StatusCode, body)
	}
	var pr server.PromoteResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		c.t.Fatalf("promote %s: bad body %q: %v", name, body, err)
	}
	c.t.Logf("chaostest: promoted %s: %s", name, body)
	return pr
}

// Put writes one document through a node's public API and records the ack.
func (c *Cluster) Put(node, coll, id string, d *ustring.String) {
	c.t.Helper()
	var body bytes.Buffer
	if err := ustring.Marshal(&body, d); err != nil {
		c.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/collections/%s/documents/%s", c.Node(node).URL(), coll, id), &body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("put %s/%s on %s: status %d", coll, id, node, resp.StatusCode)
	}
	if c.Model[coll] == nil {
		c.Model[coll] = map[string]*ustring.String{}
	}
	c.Model[coll][id] = d
}

// mutationError is the typed error body a rejected mutation carries.
type mutationError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// PutExpectStale attempts a write that MUST be rejected with the typed 409
// stale_epoch — the fenced-primary contract — and returns the body.
func (c *Cluster) PutExpectStale(node, coll, id string, d *ustring.String) mutationError {
	c.t.Helper()
	var body bytes.Buffer
	if err := ustring.Marshal(&body, d); err != nil {
		c.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/collections/%s/documents/%s", c.Node(node).URL(), coll, id), &body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict {
		c.t.Fatalf("put %s/%s on %s: status %d, want 409; body %s", coll, id, node, resp.StatusCode, raw)
	}
	var me mutationError
	if err := json.Unmarshal(raw, &me); err != nil {
		c.t.Fatalf("409 body %q: %v", raw, err)
	}
	if me.Code != "stale_epoch" {
		c.t.Fatalf("put %s/%s on %s: 409 code %q, want stale_epoch", coll, id, node, me.Code)
	}
	return me
}

// Delete removes one document through a node's public API.
func (c *Cluster) Delete(node, coll, id string) {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/collections/%s/documents/%s", c.Node(node).URL(), coll, id), nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("delete %s/%s on %s: status %d", coll, id, node, resp.StatusCode)
	}
	delete(c.Model[coll], id)
}

// Compact folds every collection on a node.
func (c *Cluster) Compact(node string) {
	c.t.Helper()
	resp, err := http.Post(c.Node(node).URL()+"/v1/compact", "application/json", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("compact on %s: status %d", node, resp.StatusCode)
	}
}

// RandomOps drives n seeded mutations against one collection on a node:
// mostly puts over a bounded id space (so deletes and replacements both
// happen), some deletes of ids known to exist, an occasional compaction.
// Every acknowledged op lands in the model. Deterministic: the id picked
// for deletion comes from the sorted key list, never map iteration order.
func (c *Cluster) RandomOps(node, coll string, n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		byID := c.Model[coll]
		switch r := c.rng.Float64(); {
		case r < 0.62 || len(byID) == 0:
			id := fmt.Sprintf("doc-%03d", c.rng.Intn(40))
			c.Put(node, coll, id, c.docs[c.rng.Intn(len(c.docs))])
		case r < 0.88:
			ids := sortedKeys(byID)
			c.Delete(node, coll, ids[c.rng.Intn(len(ids))])
		default:
			c.Compact(node)
		}
	}
}

func sortedKeys(m map[string]*ustring.String) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// WaitFor polls cond until it holds; the deadline is failure detection,
// not synchronization.
func (c *Cluster) WaitFor(what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			c.t.Fatalf("chaostest: timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Barrier waits until the named follower has applied every acknowledged
// write: caught up per its own accounting, at the feeding primary's head
// for every model collection, and holding exactly the model's documents.
func (c *Cluster) Barrier(follower, primary string) {
	c.t.Helper()
	f := c.Node(follower).follower
	fst := c.Node(follower).store
	pst := c.Node(primary).store
	c.WaitFor(fmt.Sprintf("%s caught up to %s", follower, primary), func() bool {
		if !f.CaughtUp() {
			return false
		}
		status := map[string]replica.CollectionLag{}
		for _, cs := range f.Status() {
			status[cs.Collection] = cs
		}
		for coll, byID := range c.Model {
			pos, err := pst.WALPos(coll)
			if err != nil {
				return false
			}
			cs, ok := status[coll]
			if !ok || cs.Epoch != pos.Epoch || cs.AppliedOffset < pos.Offset {
				return false
			}
			v, ok := fst.Get(coll)
			if !ok || v.Docs() != len(byID) {
				return false
			}
			for id := range byID {
				if _, ok := v.DocNumber(id); !ok {
					return false
				}
			}
		}
		return true
	})
}

// AssertEquivalence is the zero-loss, zero-torn-reads check: for every
// model collection, a never-crashed reference store is built by replaying
// the acknowledged writes, and the node must answer an entire
// Search/TopK/Count grid bit-identically — positions, probabilities, doc
// numbers — to that reference.
func (c *Cluster) AssertEquivalence(node string) {
	c.t.Helper()
	st := c.Node(node).store
	for _, coll := range sortedColls(c.Model) {
		byID := c.Model[coll]
		ref := c.open(c.t.TempDir())
		for _, id := range sortedKeys(byID) {
			if _, err := ref.Put(coll, id, byID[id]); err != nil {
				c.t.Fatal(err)
			}
		}
		rv, ok := ref.Get(coll)
		if !ok {
			c.t.Fatalf("reference store lost collection %q", coll)
		}
		nv, ok := st.Get(coll)
		if !ok {
			c.t.Fatalf("node %s lost collection %q", node, coll)
		}
		c.assertViewsIdentical(coll, rv, nv)
		ref.Close()
	}
}

// assertViewsIdentical compares two views over the standard pattern grid.
func (c *Cluster) assertViewsIdentical(coll string, want, got *ingest.View) {
	c.t.Helper()
	if want.Docs() != got.Docs() {
		c.t.Fatalf("%s: reference holds %d documents, node %d", coll, want.Docs(), got.Docs())
	}
	hits := 0
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(c.docs, 6, m, 131) {
			for _, tau := range []float64{0.1, 0.15, 0.2} {
				w, err := want.Search(p, tau)
				if err != nil {
					c.t.Fatal(err)
				}
				g, err := got.Search(p, tau)
				if err != nil {
					c.t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) && !(len(g) == 0 && len(w) == 0) {
					c.t.Fatalf("%s: Search(%q, %v): node %v, reference %v", coll, p, tau, g, w)
				}
				wn, err := want.Count(p, tau)
				if err != nil {
					c.t.Fatal(err)
				}
				gn, err := got.Count(p, tau)
				if err != nil {
					c.t.Fatal(err)
				}
				if gn != wn {
					c.t.Fatalf("%s: Count(%q, %v) = %d on node, %d on reference", coll, p, tau, gn, wn)
				}
				hits += len(w)
			}
			for _, k := range []int{1, 3, 10} {
				w, err := want.TopK(p, k)
				if err != nil {
					c.t.Fatal(err)
				}
				g, err := got.TopK(p, k)
				if err != nil {
					c.t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) && !(len(g) == 0 && len(w) == 0) {
					c.t.Fatalf("%s: TopK(%q, %d): node %v, reference %v", coll, p, k, g, w)
				}
			}
		}
	}
	if hits == 0 {
		c.t.Fatalf("%s: no query returned hits; the equivalence check was vacuous", coll)
	}
}

func sortedColls(m map[string]map[string]*ustring.String) []string {
	colls := make([]string, 0, len(m))
	for coll := range m {
		colls = append(colls, coll)
	}
	sort.Strings(colls)
	return colls
}

// Role fetches a node's self-reported effective role from /v1/stats.
func (c *Cluster) Role(node string) string {
	c.t.Helper()
	resp, err := http.Get(c.Node(node).URL() + "/v1/stats")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Role string `json:"role"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		c.t.Fatal(err)
	}
	return st.Role
}

// Step is one named scenario action.
type Step struct {
	Name string
	Do   func(c *Cluster)
}

// Run executes the scripted steps in order, logging each transition so a
// failure names the exact step that broke.
func (c *Cluster) Run(steps ...Step) {
	c.t.Helper()
	for i, s := range steps {
		c.t.Logf("chaostest: step %d/%d: %s", i+1, len(steps), s.Name)
		s.Do(c)
	}
}
