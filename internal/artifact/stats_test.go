package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"lamofinder/internal/obs"
)

func testStats() []obs.StageStat {
	return []obs.StageStat{
		{Name: "census", Wall: 120 * time.Millisecond, Items: 152, Workers: 4},
		{Name: "uniqueness", Wall: 40 * time.Millisecond, Items: 31, Workers: 4},
		{Name: "labeling", Wall: 800 * time.Millisecond, Items: 31, Workers: 4, Busy: 2400 * time.Millisecond},
		{Name: "clustering", Wall: 2100 * time.Millisecond, Items: 1840, Workers: 4},
	}
}

// TestStatsRoundTrip: stats must survive save→load→save byte-identically.
func TestStatsRoundTrip(t *testing.T) {
	a := testArtifact(t)
	a.Stats = testStats()
	first, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if v := fileVersion(first); v != Version {
		t.Fatalf("encoded as version %d, want %d", v, Version)
	}
	loaded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Stats) != len(a.Stats) {
		t.Fatalf("loaded %d stages, want %d", len(loaded.Stats), len(a.Stats))
	}
	for i, s := range loaded.Stats {
		if s != a.Stats[i] {
			t.Fatalf("stage %d = %+v, want %+v", i, s, a.Stats[i])
		}
	}
	if loaded.Index == nil {
		t.Fatal("index lost on stats-carrying artifact")
	}
	second, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("save→load→save not byte-identical with stats")
	}
}

// TestStatsExcludedFromIdentity is the determinism property the layout was
// designed for: two builds of the same model whose stages took different
// wall times, or recorded none, must report the same digest.
func TestStatsExcludedFromIdentity(t *testing.T) {
	a := testArtifact(t)
	a.Stats = testStats()
	d1, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}

	b := testArtifact(t)
	b.Stats = []obs.StageStat{{Name: "census", Wall: 987 * time.Millisecond, Items: 152, Workers: 8}}
	d2, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("wall-time noise changed model identity: %s vs %s", d1, d2)
	}
	d3, err := testArtifact(t).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatalf("recording no stats changed model identity: %s vs %s", d3, d1)
	}

	// A loaded stats-carrying artifact reports the same identity it was
	// encoded with.
	enc, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := loaded.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if ld != d1 {
		t.Fatalf("loaded identity %s, encoded identity %s", ld, d1)
	}
}

// TestStatsTamperDetected: the identity digest excludes stats, but the
// file trailer does not — flipping any stats byte must be rejected.
func TestStatsTamperDetected(t *testing.T) {
	a := testArtifact(t)
	a.Stats = testStats()
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plen := binary.LittleEndian.Uint64(good[len(Magic)+4:])
	statsStart := headerLen + int(plen)
	statsEnd := len(good) - 32
	if statsStart >= statsEnd {
		t.Fatalf("no stats section in encoded bytes (plen=%d len=%d)", plen, len(good))
	}
	for off := statsStart; off < statsEnd; off += 3 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		if _, err := Decode(bad); err == nil {
			t.Fatalf("accepted artifact with tampered stats byte at offset %d", off)
		}
	}
}

// TestStatsEmptyKeepsLegacyFormat: an artifact without stats still
// encodes in the one format, with an empty stats section, and setting then
// clearing stats restores exactly the bytes of never having had them.
func TestStatsEmptyKeepsLegacyFormat(t *testing.T) {
	a := testArtifact(t)
	if v := mustEncodeVersion(t, a); v != Version {
		t.Fatalf("stats-free artifact encoded as version %d", v)
	}
	withNever, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plen := binary.LittleEndian.Uint64(withNever[len(Magic)+4:])
	if got := len(withNever) - headerLen - int(plen) - sha256.Size; got != 4 {
		t.Fatalf("empty stats section is %d bytes, want 4 (a zero stage count)", got)
	}

	c := testArtifact(t)
	c.Stats = testStats()
	if _, err := c.Encode(); err != nil {
		t.Fatal(err)
	}
	c.Stats = nil
	withCleared, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withNever, withCleared) {
		t.Fatal("clearing stats does not restore the stats-free byte form")
	}
}

func mustEncodeVersion(t *testing.T, a *Artifact) uint32 {
	t.Helper()
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return fileVersion(b)
}

// TestStatsSectionValidation exercises the stats decoder's bounds checks
// directly: a truncated or oversized stats section must be refused even
// when the trailer is recomputed to match.
func TestStatsSectionValidation(t *testing.T) {
	a := testArtifact(t)
	a.Stats = testStats()
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plen := binary.LittleEndian.Uint64(good[len(Magic)+4:])
	statsStart := headerLen + int(plen)

	// Truncate the stats section mid-stage and re-seal the trailer.
	trunc := append([]byte(nil), good[:len(good)-32-10]...)
	trunc = seal(trunc)
	if _, err := Decode(trunc); err == nil {
		t.Fatal("accepted truncated stats section")
	}

	// Inflate the declared stage count and re-seal.
	inflated := append([]byte(nil), good[:len(good)-32]...)
	binary.LittleEndian.PutUint32(inflated[statsStart:], 1<<30)
	inflated = seal(inflated)
	if _, err := Decode(inflated); err == nil {
		t.Fatal("accepted stats section with runaway stage count")
	}

	// A file whose plen swallows the whole body leaves no room for the
	// stats section at all.
	nostats := append([]byte(nil), good[:statsStart]...)
	nostats = seal(nostats)
	if _, err := Decode(nostats); err == nil {
		t.Fatal("accepted stats-version file with empty stats section")
	}
}

// seal appends a fresh SHA-256 trailer so validation tests reach the
// structural checks behind the digest gate.
func seal(b []byte) []byte {
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}
