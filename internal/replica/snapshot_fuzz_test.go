package replica

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"testing"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/ingest"
)

// FuzzSnapshotManifest feeds hostile snapshot bodies and hostile file bytes
// through a follower's intake — decode, validate, install into a scratch
// store — and requires an error or a clean install, never a panic: bad
// collection and document names, file numbers, specs, sums, duplicate ids,
// short bodies. With matchSums set, every sum is replaced by the digest of
// the file bytes, so hostile bytes get past the digest check and reach the
// index opener.
func FuzzSnapshotManifest(f *testing.F) {
	opts := catalog.Options{TauMin: 0.1, Shards: 1, Workers: 1}
	primary, err := ingest.Open(nil, ingest.Options{Dir: f.TempDir(), Catalog: opts, CompactThreshold: -1, NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	defer primary.Close()
	for i, doc := range gen.Collection(gen.Config{N: 120, Theta: 0.3, Seed: 5})[:2] {
		if _, err := primary.Put("c", string(rune('a'+i)), doc); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := NewFeed(primary).Snapshot("c")
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(catalog.IxPath(primary.Options().Dir, "c", snap.Manifest.Docs[0].File))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body, file, false)
	f.Add(body, file, true) // installs: both documents get file's index
	f.Add(body, file[:len(file)/2], true)
	f.Add(body, []byte{}, true)
	f.Add(bytes.Replace(body, []byte(`"id":"b"`), []byte(`"id":"a"`), 1), file, false)
	f.Add(bytes.Replace(body, []byte(`"collection":"c"`), []byte(`"collection":"../c"`), 1), file, false)
	f.Add([]byte(`{"collection":"c","manifest":{"spec":"approx:0.05","tau_min":0.1,"next":1,"docs":[{"id":"a","file":0,"sum":"zz"}]}}`), file, true)
	f.Add([]byte(`{"collection":"c","manifest":{"spec":"plain","tau_min":0.1,"next":1,"docs":[{"id":"","file":7}]}}`), file, false)
	f.Add([]byte(`{"collection":"c","man`), file, false)
	f.Add([]byte{0x3e, 0xff, 0x81, 0x03, 0x01}, file, false) // a gob stream

	f.Fuzz(func(t *testing.T, body, file []byte, matchSums bool) {
		snap, err := decodeSnapshot("c", bytes.NewReader(body))
		if err != nil {
			return
		}
		if matchSums {
			sum := sha256.Sum256(file)
			for i := range snap.Manifest.Docs {
				snap.Manifest.Docs[i].Sum = hex.EncodeToString(sum[:])
			}
		}
		st, err := ingest.Open(nil, ingest.Options{Dir: t.TempDir(), Catalog: opts, CompactThreshold: -1, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		n, err := st.Install(snap.Collection, &snap.Manifest, func(catalog.ManifestDoc) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(file)), nil
		})
		if err != nil {
			return
		}
		if v, ok := st.Get(snap.Collection); !ok || v.Docs() != len(snap.Manifest.Docs) || n > v.Docs() {
			t.Fatalf("Install reported success with %d fetched files but the collection disagrees", n)
		}
	})
}
