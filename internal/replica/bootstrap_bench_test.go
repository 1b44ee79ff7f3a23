package replica_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/replica"
	"repro/internal/server"
)

// Follower bootstrap at serving size: 128 documents of 1 200 positions.
const (
	bootstrapDocs   = 128
	bootstrapDocLen = 1200
	bootstrapFold   = 8 // documents one primary fold adds in the re-sync case
)

// BenchmarkFollowerBootstrap times a follower joining a primary whose
// collection is folded: "cold" is a fresh follower's bootstrap, "resync" a
// caught-up follower's re-bootstrap after one primary fold of 8 new
// documents. heap-MiB is the follower's live heap after a cold bootstrap
// (the primary's is excluded by differencing).
func BenchmarkFollowerBootstrap(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts catalog.Options
	}{
		{"plain", catalog.Options{TauMin: 0.1, Shards: 4}},
		{"compressed-mmap", catalog.Options{TauMin: 0.1, Shards: 4, Backend: core.BackendCompressed, MMap: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			open := func(dir string) *ingest.Store {
				st, err := ingest.Open(nil, ingest.Options{Dir: dir, Catalog: bc.opts, CompactThreshold: -1, NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			primary := open(b.TempDir())
			defer primary.Close()
			next := 0
			put := func(n int) {
				for ; n > 0; n-- {
					doc := gen.Single(gen.Config{N: bootstrapDocLen, Theta: 0.3, Seed: 1<<20 + int64(next)})
					if _, err := primary.Put("c", fmt.Sprintf("d%05d", next), doc); err != nil {
						b.Fatal(err)
					}
					next++
				}
			}
			compact := func() {
				if _, err := primary.Compact("c"); err != nil {
					b.Fatal(err)
				}
			}
			put(bootstrapDocs)
			compact()
			ts := httptest.NewServer(server.NewIngest(primary, server.Config{}))
			defer ts.Close()

			b.Run("cold", func(b *testing.B) {
				var heap float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					before := liveHeap()
					st := open(b.TempDir())
					b.StartTimer()
					f, stop := follow(b, st, ts.URL)
					waitInstalled(b, f, st, 1, next)
					b.StopTimer()
					heap += float64(int64(liveHeap())-int64(before)) / (1 << 20)
					stop()
					st.Close()
					b.StartTimer()
				}
				b.ReportMetric(heap/float64(b.N), "heap-MiB")
			})
			b.Run("resync", func(b *testing.B) {
				st := open(b.TempDir())
				defer st.Close()
				f, stop := follow(b, st, ts.URL)
				defer stop()
				waitInstalled(b, f, st, 1, next)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					put(bootstrapFold)
					waitInstalled(b, f, st, i+1, next)
					b.StartTimer()
					compact()
					waitInstalled(b, f, st, i+2, next)
				}
			})
		})
	}
}

// follow starts a follower of primaryURL over st; stop ends it.
func follow(b *testing.B, st *ingest.Store, primaryURL string) (*replica.Follower, func()) {
	f, err := replica.NewFollower(replica.FollowerOptions{
		Primary: primaryURL, Store: st,
		PollInterval: time.Millisecond, DiscoverInterval: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	return f, func() {
		cancel()
		<-done
	}
}

// waitInstalled polls until f has installed snapshots snapshots and st
// serves docs documents.
func waitInstalled(b *testing.B, f *replica.Follower, st *ingest.Store, snapshots, docs int) {
	deadline := time.Now().Add(time.Minute)
	for {
		s := f.Status()
		if v, ok := st.Get("c"); ok && v.Docs() == docs && len(s) == 1 && s[0].Snapshots >= int64(snapshots) {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("follower did not reach snapshot %d with %d documents: %+v", snapshots, docs, s)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// liveHeap is the live heap after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
