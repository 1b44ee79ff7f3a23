package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mapped"
)

// corruptions are the damage patterns a daemon restart must survive: a
// cache file with garbage where the gob stream starts (bad magic), a
// truncated file (partial write, full disk), an empty file, a damaged
// manifest, and a manifest naming a file that is gone. In every case
// catalog.Load must fail with an error — never a panic — and loadCatalog
// must fall back to rebuilding from the data directory with a logged
// warning.
var corruptions = []struct {
	name   string
	target string // file within the cache dir; the first Save numbers files from 0
	damage func(t *testing.T, path string)
}{
	{"bit-flipped index", "prot.ix/0.idx", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := 64
		if len(data) < n {
			n = len(data)
		}
		for i := 0; i < n; i++ {
			data[i] ^= 0xff
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"bit-flipped index tail", "prot.ix/1.idx", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(data) / 2; i < len(data)/2+64 && i < len(data); i++ {
			data[i] ^= 0xff
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"truncated index", "prot.ix/0.idx", func(t *testing.T, path string) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}},
	{"empty index", "prot.ix/0.idx", func(t *testing.T, path string) {
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	}},
	{"corrupt manifest", "prot.manifest", func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("not a manifest"), 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"manifest names a missing file", "prot.ix/1.idx", func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestLoadCatalogSurvivesCorruptCache: damage to the persisted index cache
// must never crash the daemon — loadCatalog detects it, logs a rebuild
// warning, rebuilds from the data directory, and serves correct results.
func TestLoadCatalogSurvivesCorruptCache(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dataDir, docs := writeDataDir(t)
			cacheDir := filepath.Join(t.TempDir(), "cache")
			opts := catalog.Options{TauMin: 0.1, Shards: 2}
			truth, err := loadCatalog(dataDir, cacheDir, opts, func(string, ...any) {})
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, filepath.Join(cacheDir, filepath.FromSlash(tc.target)))

			rebuilt := false
			logSpy := func(format string, args ...any) {
				if strings.Contains(format, "rebuilding") {
					rebuilt = true
				}
			}
			cat, err := loadCatalog(dataDir, cacheDir, opts, logSpy)
			if err != nil {
				t.Fatalf("corrupt cache broke startup: %v", err)
			}
			if !rebuilt {
				t.Fatal("corrupt cache served without a rebuild warning")
			}
			a, _ := truth.Get("prot")
			b, ok := cat.Get("prot")
			if !ok || a.Docs() != b.Docs() {
				t.Fatalf("rebuilt catalog lost documents: want %d", a.Docs())
			}
			for _, p := range gen.CollectionPatterns(docs, 4, 3, 131) {
				ha, err := a.Search(p, 0.15)
				if err != nil {
					t.Fatal(err)
				}
				hb, err := b.Search(p, 0.15)
				if err != nil {
					t.Fatal(err)
				}
				if len(ha) != len(hb) {
					t.Fatalf("rebuilt catalog disagrees on %q: %d vs %d hits", p, len(ha), len(hb))
				}
				for i := range ha {
					if ha[i] != hb[i] {
						t.Fatalf("rebuilt catalog disagrees on %q at hit %d", p, i)
					}
				}
			}
			// The rebuild must also have refreshed the cache: the next
			// restart loads cleanly without another rebuild.
			rebuilt = false
			if _, err := loadCatalog(dataDir, cacheDir, opts, logSpy); err != nil {
				t.Fatal(err)
			}
			if rebuilt {
				t.Fatal("cache not repaired by the rebuild")
			}
		})
	}
}

// TestLoadCatalogReleasesRejectedCache: a cache that loads but is rejected
// for another taumin is closed before the rebuild, so its mappings do not
// outlive it.
func TestLoadCatalogReleasesRejectedCache(t *testing.T) {
	if !mapped.Available() {
		t.Skip("mmap unavailable")
	}
	dataDir, _ := writeDataDir(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	opts := catalog.Options{TauMin: 0.1, Backend: core.BackendCompressed, MMap: true}
	quiet := func(string, ...any) {}
	if _, err := loadCatalog(dataDir, cacheDir, opts, quiet); err != nil {
		t.Fatal(err)
	}
	before := mapped.MappedBytes()
	opts.TauMin = 0.2
	cat, err := loadCatalog(dataDir, cacheDir, opts, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if col, _ := cat.Get("prot"); col.TauMin() != 0.2 {
		t.Fatalf("restart with -taumin 0.2 served taumin %g", col.TauMin())
	}
	if after := mapped.MappedBytes(); after != before {
		t.Fatalf("mapped bytes %d after the rejected cache, %d before: mappings leaked", after, before)
	}
}
