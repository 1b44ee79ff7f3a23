package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/factor"
	"repro/internal/mapped"
	"repro/internal/ustring"
)

// Persistence format history:
//
//	1 — plain backend only; no Backend tag (decoded as BackendPlain).
//	2 — adds the Backend tag and the compressed backend's SampleRate.
//	3 — adds the approx backend and its Epsilon parameter.
//	4 — flat region envelope (internal/mapped), dispatched on its magic, not
//	    gob: query structures stored as mmap-able aligned regions, no rebuild
//	    on load. The compressed backend writes it (persist4.go), and so does
//	    the plain backend, whose envelope holds exactly what a plain query
//	    reads (plain4.go).
//
// Gob formats 1–3 stay readable. Their exact-backend payload is the source
// string plus the Lemma 2 transformation, and loading one rebuilds the
// query structures from it: the plain backend's suffix array and RMQ
// levels, the compressed backend's BWT/wavelet machinery. The approx
// backend still writes format 3: the source and its (τmin, ε) parameters
// only, its transformation and link structure rebuilt on load (retaining
// the transformation would cost more than the whole index). ReadBackend
// accepts every format.
const persistFormat = 3

// persisted is the gob payload of formats 1–3.
type persisted struct {
	Format  int
	Backend string // "" (format 1) means BackendPlain
	TauMin  float64
	LongCap int
	// SampleRate is the compressed backend's suffix-array sampling interval
	// (0 = default); unused by the other backends.
	SampleRate int
	// Epsilon is the approx backend's additive error bound; 0 elsewhere.
	Epsilon float64
	Source  *ustring.String
	// Tr is nil for the approx backend, which rebuilds its own
	// transformation from Source.
	Tr *factor.Transformed
}

// WriteTo serialises the approximate backend: source string and the
// (τmin, ε) construction parameters. The transformation and ε-link
// structure are deterministic, so loading rebuilds them from the source.
func (ab *ApproxBackend) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	err := gob.NewEncoder(cw).Encode(persisted{
		Format:  persistFormat,
		Backend: BackendApprox,
		TauMin:  ab.TauMin(),
		Epsilon: ab.Epsilon(),
		Source:  ab.Source(),
	})
	return cw.n, err
}

// ReadBackend deserialises an index written by any backend's WriteTo. A
// format-4 envelope is validated — structure, region checksums, source
// invariants — and its structures are assembled as views over the read
// buffer, no rebuild; gob formats 1–3 rebuild their query structures. A
// corrupted or truncated payload — bit flips, a short file, internally
// inconsistent arrays, hostile region tables — is reported as an error
// wrapping ErrCorruptIndex (or ErrUnsupportedFormat), never a panic and
// never an oversized allocation: every array length is cross-checked
// before use, and the gob rebuild runs under a recover so callers (the
// daemon's index cache) can fall back to rebuilding from source data.
func ReadBackend(r io.Reader) (Backend, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return decodeBackend(data)
}

// asCorrupt, deferred by an index open, turns a panic into an error
// wrapping ErrCorruptIndex: a check the open missed makes a hostile file a
// failed open, never a crashed process.
func asCorrupt(b *Backend, err *error) {
	if p := recover(); p != nil {
		*b, *err = nil, fmt.Errorf("%w: %v", ErrCorruptIndex, p)
	}
}

// decodeBackend is ReadBackend over a whole index file held in data, which
// an envelope-format index keeps as its backing store.
func decodeBackend(data []byte) (b Backend, err error) {
	defer asCorrupt(&b, &err)
	if mapped.IsEnvelope(data) {
		env, err := mapped.Open(data)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
		}
		// The whole payload is heap-resident already; verifying checksums
		// and the source costs one pass and preserves the historical
		// contract that ReadBackend never returns a corrupt index.
		if err := env.VerifyChecksums(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
		}
		return backendFromEnvelope(env, true)
	}
	var p persisted
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: reading index: %v", ErrCorruptIndex, err)
	}
	if p.Format < 1 || p.Format > persistFormat {
		return nil, fmt.Errorf("%w: format %d (want 1..%d or a format-4 envelope)",
			ErrUnsupportedFormat, p.Format, persistFormat)
	}
	backend, err := ParseBackend(p.Backend)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
	}
	if p.Source == nil {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorruptIndex)
	}
	if err := p.Source.Validate(); err != nil {
		return nil, fmt.Errorf("%w: persisted source invalid: %w", ErrCorruptIndex, err)
	}
	if backend == BackendApprox {
		if !(p.Epsilon > 0 && p.Epsilon < 1) {
			return nil, fmt.Errorf("%w: approx epsilon %v outside (0, 1)", ErrCorruptIndex, p.Epsilon)
		}
		// The approx payload carries no transformation: the index rebuilds
		// its own (deterministically) from the validated source.
		return BuildApprox(p.Source, p.TauMin, p.Epsilon)
	}
	if p.Tr == nil {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorruptIndex)
	}
	if err := checkTransformed(p.Tr, p.Source.Len()); err != nil {
		return nil, err
	}
	if backend == BackendCompressed {
		return newCompressed(p.Source, p.TauMin, p.LongCap, p.SampleRate, p.Tr)
	}
	return newIndex(p.Source, p.TauMin, p.LongCap, p.Tr), nil
}

// ReadIndex deserialises a plain index written by Index.WriteTo. Files
// holding a different backend are rejected; use ReadBackend to load any
// backend.
func ReadIndex(r io.Reader) (*Index, error) {
	b, err := ReadBackend(r)
	if err != nil {
		return nil, err
	}
	ix, ok := b.(*Index)
	if !ok {
		return nil, fmt.Errorf("core: index file holds the %q backend; load it with ReadBackend", b.Kind())
	}
	return ix, nil
}

// checkTransformed verifies the structural invariants of a decoded
// transformation: parallel arrays of one length, position maps inside the
// source string, span references inside the span list. Everything the
// engine rebuild indexes by must be proven in-bounds here.
func checkTransformed(tr *factor.Transformed, sourceLen int) error {
	n := len(tr.T)
	if len(tr.LogP) != n || len(tr.Pos) != n || len(tr.SpanOf) != n {
		return fmt.Errorf("%w: array lengths T=%d LogP=%d Pos=%d SpanOf=%d disagree",
			ErrCorruptIndex, n, len(tr.LogP), len(tr.Pos), len(tr.SpanOf))
	}
	if tr.MaxFactorLen < 0 || tr.MaxFactorLen > n {
		return fmt.Errorf("%w: MaxFactorLen %d outside [0, %d]", ErrCorruptIndex, tr.MaxFactorLen, n)
	}
	if tr.SourceLen != sourceLen {
		return fmt.Errorf("%w: SourceLen %d but source has %d positions", ErrCorruptIndex, tr.SourceLen, sourceLen)
	}
	for i := 0; i < n; i++ {
		if p := tr.Pos[i]; p < -1 || int(p) >= sourceLen {
			return fmt.Errorf("%w: Pos[%d] = %d outside source", ErrCorruptIndex, i, p)
		}
		if s := tr.SpanOf[i]; s < -1 || int(s) >= len(tr.Spans) {
			return fmt.Errorf("%w: SpanOf[%d] = %d outside span list", ErrCorruptIndex, i, s)
		}
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
