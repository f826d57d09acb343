package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/predict"
)

var update = flag.Bool("update", false, "rewrite the FuzzDecode seed corpus under testdata/fuzz/")

// sealPayload wraps payload bytes (the model encoding followed by the
// score-index section) as a complete artifact file: a valid header, the
// payload, an empty stats section and a correct SHA-256 trailer. Fuzzed
// payloads therefore reach decodePayload and decodeIndex instead of
// failing at the checksum.
func sealPayload(payload []byte) []byte {
	b := make([]byte, 0, headerLen+len(payload)+4+sha256.Size)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, 0) // stats section: zero stages
	return seal(b)
}

// payloadOf returns the payload bytes of a's encoding.
func payloadOf(t testing.TB, a *Artifact) []byte {
	t.Helper()
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plen := binary.LittleEndian.Uint64(b[len(Magic)+4:])
	return b[headerLen : headerLen+int(plen)]
}

// FuzzDecode feeds mutated payloads through Decode. Properties: no input
// panics, and any accepted input re-encodes to bytes that decode and
// re-encode identically.
func FuzzDecode(f *testing.F) {
	f.Add(payloadOf(f, testArtifact(f)))
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := Decode(sealPayload(payload))
		if err != nil {
			return
		}
		first, err := a.Encode()
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		again, err := Decode(first)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatalf("decoded re-encoding does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable: %d vs %d bytes", len(first), len(second))
		}
	})
}

// paperExample is the indexed artifact for the paper's worked example
// (Figures 1-3): the Figure-2 motif labeled over the Figure-3 network,
// predicting GO terms directly.
func paperExample(t testing.TB) *Artifact {
	t.Helper()
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	motifs := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, label.Config{Sigma: 2, MinDirect: 30}).LabelMotif(pe.Motif)
	task := predict.NewTask(pe.Network, o.NumTerms())
	for p := 0; p < pe.Network.N(); p++ {
		for _, tm := range pe.Corpus.Terms(p) {
			task.Functions[p] = append(task.Functions[p], int(tm))
		}
	}
	names := make([]string, o.NumTerms())
	for tm := range names {
		names[tm] = o.ID(tm)
	}
	a, err := Build("paper-example", "fuzz seed", task, names, pe.Corpus, pe.Direct, 30, motifs)
	if err != nil {
		t.Fatal(err)
	}
	a.BuildIndex(1)
	return a
}

// TestFuzzDecodeSeeds keeps the committed FuzzDecode corpus in step with
// the encoder: the seeds are the paper example's current payload and
// truncations of it at each quarter and one byte short. Rewrite them with
// go test ./internal/artifact -run TestFuzzDecodeSeeds -update.
func TestFuzzDecodeSeeds(t *testing.T) {
	full := payloadOf(t, paperExample(t))
	seeds := map[string][]byte{"paper-example": full}
	for q := 1; q <= 3; q++ {
		seeds[fmt.Sprintf("paper-example-trunc-%dof4", q)] = full[:len(full)*q/4]
	}
	seeds["paper-example-trunc-last"] = full[:len(full)-1]
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, payload := range seeds {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload))
		path := filepath.Join(dir, name)
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s is stale: regenerate with go test ./internal/artifact -run TestFuzzDecodeSeeds -update", path)
		}
	}
	if _, err := Decode(sealPayload(full)); err != nil {
		t.Fatalf("the full seed does not decode: %v", err)
	}
}

// TestDecodeBoundsProteinAllocation declares as many proteins as the
// payload can hold, each with an empty name and nothing else: the decode
// must fail, and allocate at most 6 times the payload's length before it
// does, whatever the declared count.
func TestDecodeBoundsProteinAllocation(t *testing.T) {
	const n = 100_000
	payload := make([]byte, 0, 12+12*n)
	payload = binary.LittleEndian.AppendUint32(payload, 0) // dataset ""
	payload = binary.LittleEndian.AppendUint32(payload, 0) // note ""
	payload = binary.LittleEndian.AppendUint32(payload, n)
	payload = append(payload, make([]byte, 12*n)...) // names "", then zeros
	file := sealPayload(payload)
	if _, err := Decode(file); err == nil {
		t.Fatal("Decode accepted a payload too short for its proteins")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(file); err == nil {
				b.Fatal("Decode accepted the payload")
			}
		}
	})
	got, limit := res.AllocedBytesPerOp(), int64(6*len(payload))
	t.Logf("decoding a %d-byte payload declaring %d proteins allocated %d bytes", len(payload), n, got)
	if got > limit {
		t.Fatalf("decoding a %d-byte payload allocated %d bytes, want at most %d", len(payload), got, limit)
	}
}
