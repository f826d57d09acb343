package artifact

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lamofinder/internal/predict"
)

// fileVersion reads the format version out of encoded artifact bytes.
func fileVersion(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b[len(Magic):])
}

// TestEncodeVersionTracksIndex: an indexed artifact encodes as the one
// format version, and an artifact without an index does not encode at all.
func TestEncodeVersionTracksIndex(t *testing.T) {
	plain := unindexedArtifact(t)
	if _, err := plain.Encode(); err == nil || !strings.Contains(err.Error(), "BuildIndex") {
		t.Fatalf("Encode without an index: %v", err)
	}
	if _, err := plain.Digest(); err == nil {
		t.Fatal("Digest without an index succeeded")
	}
	if err := plain.SaveFile(filepath.Join(t.TempDir(), "m.lamoart")); err == nil {
		t.Fatal("SaveFile without an index succeeded")
	}
	plain.BuildIndex(2)
	indexed, err := plain.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if v := fileVersion(indexed); v != Version {
		t.Fatalf("indexed artifact encoded as version %d, want %d", v, Version)
	}
}

func TestIndexRoundTripByteIdentical(t *testing.T) {
	a := testArtifact(t)
	a.BuildIndex(3)
	first, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Index == nil {
		t.Fatal("index lost across round trip")
	}
	second, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("v2 save→load→save not byte-identical: %d vs %d bytes", len(first), len(second))
	}

	// The reconstructed index must replay the scorer exactly: the
	// category-major columns hold each protein's row, and the rankings
	// are TopK of it.
	scorer := a.NewScorer()
	ix := loaded.Index
	if ix.NumProteins() != a.Graph.N() {
		t.Fatalf("index covers %d proteins, model has %d", ix.NumProteins(), a.Graph.N())
	}
	for p := 0; p < a.Graph.N(); p++ {
		row := scorer.Scores(p)
		for f, s := range row {
			if got := ix.Column(f)[p]; got != s {
				t.Fatalf("protein %d function %d: index %v, scorer %v", p, f, got, s)
			}
		}
		if want := predict.TopK(row, 0); !reflect.DeepEqual(ix.Ranking(p), want) {
			t.Fatalf("protein %d: index ranking %v, TopK %v", p, ix.Ranking(p), want)
		}
	}
}

// TestIndexTamperRejected flips bits across the index section (the payload
// bytes after the model encoding) and requires every variant to be
// rejected by the digest check.
func TestIndexTamperRejected(t *testing.T) {
	a := testArtifact(t)
	e := &enc{}
	if err := a.encodePayload(e); err != nil {
		t.Fatal(err)
	}
	indexStart := headerLen + len(e.buf)
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for off := indexStart - 8; off < len(good); off += 3 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x08
		if _, err := Decode(bad); err == nil {
			t.Fatalf("accepted artifact with tampered index byte at offset %d", off)
		}
	}
}

// TestIndexConsistencyValidated re-signs artifacts whose index disagrees
// with the score matrix — a forgery the digest cannot catch because the
// digest is recomputed — and requires the decoder's semantic checks to
// reject them.
func TestIndexConsistencyValidated(t *testing.T) {
	mutate := func(t *testing.T, f func(ix *ScoreIndex) bool, wantErr string) {
		t.Helper()
		a := testArtifact(t)
		a.BuildIndex(1)
		if !f(a.Index) {
			t.Skip("fixture shape cannot express this mutation")
		}
		a.digest = ""
		b, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(b)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("inconsistent index not rejected: %v", err)
		}
	}

	mutate(t, func(ix *ScoreIndex) bool {
		// Swap the two best entries of some protein: order violation.
		for p := range ix.ranked {
			if len(ix.ranked[p]) >= 2 {
				rk := ix.ranked[p]
				rk[0], rk[1] = rk[1], rk[0]
				return true
			}
		}
		return false
	}, "out of order")

	mutate(t, func(ix *ScoreIndex) bool {
		// Drop a ranked entry: ranking no longer covers the positive row.
		for p := range ix.ranked {
			if len(ix.ranked[p]) >= 1 {
				ix.ranked[p] = ix.ranked[p][:len(ix.ranked[p])-1]
				return true
			}
		}
		return false
	}, "positive scores")
}

// TestDigestChangesIffIndexChanges: the index is part of the model
// identity — rebuilding it at any parallelism keeps the digest, and a
// changed index (here one forged score, re-signed) changes it.
func TestDigestChangesIffIndexChanges(t *testing.T) {
	digest := func(t *testing.T, build func(a *Artifact)) string {
		t.Helper()
		a := unindexedArtifact(t)
		build(a)
		d, err := a.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ix1 := digest(t, func(a *Artifact) { a.BuildIndex(1) })
	ix4 := digest(t, func(a *Artifact) { a.BuildIndex(4) })
	if ix1 != ix4 {
		t.Fatalf("index digest depends on build parallelism: %s vs %s", ix1, ix4)
	}
	forged := digest(t, func(a *Artifact) {
		a.BuildIndex(1)
		a.Index.cols[0] += 0.5
	})
	if forged == ix1 {
		t.Fatal("digest unchanged by a different score index")
	}
}
