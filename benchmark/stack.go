package main

// Booting the serving stack in-process: the same constructors the daemon
// calls (catalog.New/Load, ingest.Open, server.New/NewIngest) behind a real
// TCP listener on the loopback interface.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/ustring"
)

const (
	benchTenant = "bench"
	benchKey    = "bench-key"
)

// collRef names one served collection and how its answers are judged.
type collRef struct {
	name   string
	approx bool
}

var (
	plainSpec      = core.BackendSpec{Kind: core.BackendPlain}
	compressedSpec = core.BackendSpec{Kind: core.BackendCompressed}
	approxSpec     = core.BackendSpec{Kind: core.BackendApprox, Epsilon: epsilon}
	allSpecs       = []core.BackendSpec{plainSpec, compressedSpec, approxSpec}
)

// catalogOptions are the daemon's defaults: Shards and Workers resolve to
// GOMAXPROCS, which main pins to 2.
func catalogOptions(mmap bool) catalog.Options {
	return catalog.Options{TauMin: tauMin, MMap: mmap}
}

// stack is one booted server with everything needed to tear it down and to
// re-open its persisted state.
type stack struct {
	addr     string
	handler  *server.Server
	cat      *catalog.Catalog // the served catalog, or the ingest seed
	store    *ingest.Store
	colls    []collRef
	cacheDir string // saved catalog, for static stacks
	walDir   string // ingest directory, for mutable stacks
	mmap     bool

	srv    *http.Server
	served chan struct{}
}

func (s *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // always returns ErrServerClosed after stopListening
	}()
	return nil
}

// stopListening closes the listener and every connection, and waits for the
// accept loop to end. The store, if any, is left exactly as it is.
func (s *stack) stopListening() {
	if s.srv != nil {
		s.srv.Close()
		<-s.served
		s.srv = nil
	}
}

func (s *stack) close() {
	s.stopListening()
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
	closeCatalog(s.cat)
}

// closeCatalog releases the mappings behind a catalog's indexes.
func closeCatalog(cat *catalog.Catalog) {
	if cat == nil {
		return
	}
	for _, name := range cat.Names() {
		if col, ok := cat.Get(name); ok {
			for _, ix := range col.DocIndexes() {
				core.CloseBackend(ix)
			}
		}
	}
}

// indexBytesPerPos is the resident index footprint per indexed position over
// every collection the stack serves.
func (s *stack) indexBytesPerPos() float64 {
	var bytes, positions int
	if s.store != nil {
		for _, info := range s.store.Stats() {
			bytes += info.IndexBytes
			positions += info.Positions
		}
	} else {
		for _, info := range s.cat.Stats() {
			bytes += info.IndexBytes
			positions += info.Positions
		}
	}
	return float64(bytes) / float64(positions)
}

// buildCatalog builds one collection per spec over docs, named after the
// spec's backend kind.
func buildCatalog(docs []*ustring.String, specs []core.BackendSpec) (*catalog.Catalog, []collRef, error) {
	cat := catalog.New(catalogOptions(false))
	var colls []collRef
	for _, spec := range specs {
		if _, err := cat.AddWithSpec(spec.Kind, docs, spec); err != nil {
			return nil, nil, err
		}
		colls = append(colls, collRef{name: spec.Kind, approx: spec.Kind == core.BackendApprox})
	}
	return cat, colls, nil
}

// bootStatic builds a catalog, saves it to dir/cache and serves it. With
// mmap the saved envelopes are re-opened mapped and the heap-built catalog
// is dropped before serving.
func bootStatic(dir string, docs []*ustring.String, specs []core.BackendSpec, mmap bool, cfg server.Config) (*stack, error) {
	cat, colls, err := buildCatalog(docs, specs)
	if err != nil {
		return nil, err
	}
	s := &stack{cacheDir: filepath.Join(dir, "cache"), mmap: mmap, colls: colls}
	if err := cat.Save(s.cacheDir); err != nil {
		return nil, err
	}
	if mmap {
		if cat, err = catalog.Load(s.cacheDir, catalogOptions(true)); err != nil {
			return nil, err
		}
	}
	s.cat = cat
	s.handler = server.New(cat, cfg)
	return s, s.listen()
}

func ingestOptions(walDir string, compactThreshold int) ingest.Options {
	return ingest.Options{Dir: walDir, Catalog: catalogOptions(false), CompactThreshold: compactThreshold}
}

// bootIngest serves a primary seeded with cat's collections. The WAL is
// fsynced on every append — the store's default, never varied here.
func bootIngest(dir string, cat *catalog.Catalog, colls []collRef, compactThreshold int, cfg server.Config) (*stack, error) {
	s := &stack{walDir: filepath.Join(dir, "wal"), cat: cat, colls: colls}
	st, err := ingest.Open(cat, ingestOptions(s.walDir, compactThreshold))
	if err != nil {
		return nil, err
	}
	s.store = st
	s.handler = server.NewIngest(st, cfg)
	return s, s.listen()
}

// reopenStatic times persisted catalog → first correct answer.
func (s *stack) reopenStatic(in *inputs) (time.Duration, error) {
	begin := time.Now()
	cat, err := catalog.Load(s.cacheDir, catalogOptions(s.mmap))
	if err != nil {
		return 0, err
	}
	defer closeCatalog(cat)
	ref := s.colls[0]
	col, ok := cat.Get(ref.name)
	if !ok || !checkDirect(col, &in.pool[in.probe], &in.truth[in.probe], ref.approx) {
		return 0, fmt.Errorf("reopen: first answer of collection %q from %s is wrong", ref.name, s.cacheDir)
	}
	return time.Since(begin), nil
}

// querier is the query surface shared by catalog.Collection and ingest.View.
type querier interface {
	Search(p []byte, tau float64) ([]catalog.DocHit, error)
	TopK(p []byte, k int) ([]catalog.DocHit, error)
	Count(p []byte, tau float64) (int, error)
}

// execDirect runs one tuple against a collection or view without a server.
func execDirect(q querier, t *tuple, approx bool) (count int, hits []catalog.DocHit, err error) {
	switch t.effectiveOp(approx) {
	case opTopK:
		hits, err = q.TopK(t.pattern, topK)
		return len(hits), hits, err
	case opCount:
		count, err = q.Count(t.pattern, t.tau)
		return count, nil, err
	}
	hits, err = q.Search(t.pattern, t.tau)
	return len(hits), hits, err
}

func checkDirect(q querier, t *tuple, tr *truth, approx bool) bool {
	count, dh, err := execDirect(q, t, approx)
	if err != nil {
		return false
	}
	hits := make([]hit, len(dh))
	for i, h := range dh {
		hits[i] = hit{doc: h.Doc, pos: h.Pos, prob: h.Prob}
	}
	return tr.check(t, approx, count, hits)
}

// runDir creates a fresh scratch directory for one run under the working
// directory, so the benchmark never writes outside its checkout.
func runDir() (string, error) {
	root := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "r")
}
