package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"lamofinder/internal/graph"
	"lamofinder/internal/label"
	"lamofinder/internal/obs"
	"lamofinder/internal/ontology"
)

// On-disk layout (all integers little-endian):
//
//	offset 0   magic   "LAMOART\n" (8 bytes)
//	offset 8   version uint32 (always 4)
//	offset 12  plen    uint64 — payload length
//	offset 20  payload plen bytes: the canonical encoding of the model,
//	           then the score-index section (see index.go)
//	offset 20+plen     build-stats section (stage count, then per stage)
//	trailing 32 bytes  SHA-256 digest of every preceding byte
//
// Version 4 is the only format: every artifact carries its score index,
// and its build-stats section (empty when no stats were recorded). The
// numbering keeps the history — versions 1-3 were the unindexed and
// stats-free variants of the same payload — so an old file fails with a
// version error instead of a misread.
//
// The payload encoding is a pure function of the Artifact's contents —
// every list is written in its canonical in-memory order (adjacency and
// annotation lists are kept sorted by their owners) and no map is ever
// iterated — so identical models produce identical bytes, save→load→save
// is byte-identical, and the digest doubles as a model identity for
// caches and client pinning. Build stats carry wall-clock measurements
// that differ between otherwise identical builds, so the identity digest
// is computed over header+payload only; the trailer still covers the
// stats section, so tampering with stats is detected even though it
// cannot change identity.

// Magic identifies a lamod artifact file.
const Magic = "LAMOART\n"

// Version is the artifact format version: indexed payload plus build
// stats. Decode refuses every other version.
const Version = 4

const headerLen = len(Magic) + 4 + 8

// maxCount caps any single length field read from an untrusted file, on
// top of the remaining-bytes check, so a corrupt length cannot force a
// multi-gigabyte allocation before the digest even gets verified.
const maxCount = 1 << 28

// Encode renders the artifact to its canonical byte form (header, payload
// with score index, stats section, digest) and caches the identity
// digest. An artifact without a score index cannot be encoded: call
// BuildIndex first.
func (a *Artifact) Encode() ([]byte, error) {
	if a.Index == nil {
		return nil, fmt.Errorf("artifact: no score index to encode (call BuildIndex)")
	}
	e := &enc{}
	if err := a.encodePayload(e); err != nil {
		return nil, err
	}
	if err := a.encodeIndex(e); err != nil {
		return nil, err
	}
	out := make([]byte, 0, headerLen+len(e.buf)+sha256.Size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(e.buf)))
	out = append(out, e.buf...)
	// Identity stops at the payload: stats carry wall-clock noise that must
	// not distinguish otherwise identical models.
	id := sha256.Sum256(out)
	a.digest = hex.EncodeToString(id[:])
	se := &enc{}
	encodeStats(se, a.Stats)
	out = append(out, se.buf...)
	sum := sha256.Sum256(out)
	out = append(out, sum[:]...)
	return out, nil
}

// Decode verifies and decodes one encoded artifact.
func Decode(b []byte) (*Artifact, error) {
	if len(b) < headerLen+sha256.Size {
		return nil, fmt.Errorf("artifact: file truncated (%d bytes)", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("artifact: not a lamod artifact (bad magic)")
	}
	if version := binary.LittleEndian.Uint32(b[len(Magic):]); version != Version {
		return nil, fmt.Errorf("artifact: format version %d, this build reads version %d only (rebuild with lamod build)", version, Version)
	}
	body := uint64(len(b) - headerLen - sha256.Size)
	plen := binary.LittleEndian.Uint64(b[len(Magic)+4:])
	if plen >= body {
		return nil, fmt.Errorf("artifact: payload length %d leaves no stats section in %d-byte file", plen, len(b))
	}
	sum := sha256.Sum256(b[:len(b)-sha256.Size])
	var stored [sha256.Size]byte
	copy(stored[:], b[len(b)-sha256.Size:])
	if sum != stored {
		return nil, fmt.Errorf("artifact: digest mismatch — file corrupt or tampered")
	}
	d := &dec{b: b[headerLen : headerLen+int(plen)]}
	a, err := decodePayload(d)
	if err != nil {
		return nil, err
	}
	if a.Index, err = decodeIndex(d, a); err != nil {
		return nil, err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("artifact: %d trailing payload bytes", len(d.b)-d.off)
	}
	sd := &dec{b: b[headerLen+int(plen) : len(b)-sha256.Size]}
	if a.Stats, err = decodeStats(sd); err != nil {
		return nil, err
	}
	if sd.off != len(sd.b) {
		return nil, fmt.Errorf("artifact: %d trailing stats bytes", len(sd.b)-sd.off)
	}
	id := sha256.Sum256(b[:headerLen+int(plen)])
	a.digest = hex.EncodeToString(id[:])
	return a, nil
}

func (a *Artifact) encodePayload(e *enc) error {
	e.str(a.Dataset)
	e.str(a.Note)

	// Network: names, then edges in the graph's canonical (u<v ascending)
	// order.
	n := a.Graph.N()
	e.u32(uint32(n))
	for v := 0; v < n; v++ {
		e.str(a.Graph.Name(v))
	}
	edges := a.Graph.Edges(nil)
	e.u32(uint32(len(edges)))
	for _, ed := range edges {
		e.u32(uint32(ed[0]))
		e.u32(uint32(ed[1]))
	}

	// Task functions.
	e.u32(uint32(a.NumFunctions))
	for _, name := range a.FunctionNames {
		e.str(name)
	}
	if len(a.Functions) != n {
		return fmt.Errorf("artifact: %d function rows for %d proteins", len(a.Functions), n)
	}
	for _, fs := range a.Functions {
		e.u32(uint32(len(fs)))
		for _, f := range fs {
			e.u32(uint32(f))
		}
	}

	// Ontology slice: terms in index order, then parent edges in each
	// term's stored order.
	nt := a.Ontology.NumTerms()
	e.u32(uint32(nt))
	for t := 0; t < nt; t++ {
		e.str(a.Ontology.ID(t))
		e.str(a.Ontology.Name(t))
	}
	for t := 0; t < nt; t++ {
		parents := a.Ontology.Parents(t)
		rels := a.Ontology.ParentRels(t)
		e.u32(uint32(len(parents)))
		for i, p := range parents {
			e.u32(uint32(p))
			e.u8(uint8(rels[i]))
		}
	}

	// Term weights.
	if len(a.Weights) != nt {
		return fmt.Errorf("artifact: %d weights for %d terms", len(a.Weights), nt)
	}
	for _, w := range a.Weights {
		e.f64(w)
	}

	// Corpus: per-protein sorted direct term lists.
	if a.Corpus.NumProteins() != n {
		return fmt.Errorf("artifact: corpus covers %d proteins, network has %d", a.Corpus.NumProteins(), n)
	}
	for p := 0; p < n; p++ {
		ts := a.Corpus.Terms(p)
		e.u32(uint32(len(ts)))
		for _, t := range ts {
			e.u32(uint32(t))
		}
	}

	// Border informative FC.
	e.u32(uint32(a.MinDirect))
	e.u32(uint32(len(a.Border)))
	for _, t := range a.Border {
		e.u32(uint32(t))
	}

	// Labeled motifs.
	e.u32(uint32(len(a.Motifs)))
	for _, lm := range a.Motifs {
		nv := lm.Size()
		e.u8(uint8(nv))
		var medges [][2]int
		for j := 0; j < nv; j++ {
			for i := 0; i < j; i++ {
				if lm.Pattern.HasEdge(i, j) {
					medges = append(medges, [2]int{i, j})
				}
			}
		}
		e.u32(uint32(len(medges)))
		for _, ed := range medges {
			e.u8(uint8(ed[0]))
			e.u8(uint8(ed[1]))
		}
		for v := 0; v < nv; v++ {
			ts := lm.Labels[v]
			e.u32(uint32(len(ts)))
			for _, t := range ts {
				e.u32(uint32(t))
			}
		}
		e.u32(uint32(len(lm.Occurrences)))
		for _, occ := range lm.Occurrences {
			for _, p := range occ {
				e.u32(uint32(p))
			}
		}
		e.u32(uint32(lm.Frequency))
		e.f64(lm.Uniqueness)
	}
	return nil
}

func decodePayload(d *dec) (*Artifact, error) {
	a := &Artifact{}
	a.Dataset = d.str()
	a.Note = d.str()

	// Every protein has a name, a function count and an annotation count,
	// each at least a 4-byte prefix, so a count the payload cannot hold
	// fails before the per-protein tables are allocated.
	n := d.count(12)
	if d.err != nil {
		return nil, d.err
	}
	a.Graph = graph.New(n)
	for v := 0; v < n; v++ {
		a.Graph.SetName(v, d.str())
	}
	m := d.count(8)
	for i := 0; i < m && d.err == nil; i++ {
		u := d.index(n, "edge endpoint")
		v := d.index(n, "edge endpoint")
		if d.err == nil && !a.Graph.AddEdge(u, v) {
			d.fail("duplicate or degenerate edge {%d,%d}", u, v)
		}
	}

	a.NumFunctions = d.count(4)
	for f := 0; f < a.NumFunctions && d.err == nil; f++ {
		a.FunctionNames = append(a.FunctionNames, d.str())
	}
	a.Functions = make([][]int, n)
	for p := 0; p < n && d.err == nil; p++ {
		c := d.count(4)
		for i := 0; i < c && d.err == nil; i++ {
			a.Functions[p] = append(a.Functions[p], d.index(a.NumFunctions, "function"))
		}
	}

	nt := d.count(8)
	b := ontology.NewBuilder()
	ids := make([]string, nt)
	for t := 0; t < nt && d.err == nil; t++ {
		ids[t] = d.str()
		b.AddTerm(ids[t], d.str())
	}
	type rel struct {
		child, parent int
		typ           ontology.RelType
	}
	var rels []rel
	for t := 0; t < nt && d.err == nil; t++ {
		pc := d.count(5)
		for i := 0; i < pc && d.err == nil; i++ {
			p := d.index(nt, "parent term")
			typ := ontology.RelType(d.u8())
			if typ != ontology.IsA && typ != ontology.PartOf {
				d.fail("unknown relation type %d", typ)
			}
			rels = append(rels, rel{t, p, typ})
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	for _, r := range rels {
		b.AddRelation(ids[r.child], ids[r.parent], r.typ)
	}
	o, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if o.NumTerms() != nt {
		return nil, fmt.Errorf("artifact: duplicate term ids collapse %d terms to %d", nt, o.NumTerms())
	}
	a.Ontology = o

	a.Weights = make(ontology.Weights, nt)
	for t := 0; t < nt && d.err == nil; t++ {
		a.Weights[t] = d.f64()
	}

	// The corpus table costs as much per protein as the graph's; allocate
	// it only when the payload still holds every annotation count.
	if !d.room(n, 4) {
		return nil, d.err
	}
	a.Corpus = ontology.NewCorpus(o, n)
	for p := 0; p < n && d.err == nil; p++ {
		c := d.count(4)
		prev := -1
		for i := 0; i < c && d.err == nil; i++ {
			t := d.index(nt, "annotation term")
			if t <= prev {
				d.fail("annotation terms of protein %d not strictly ascending", p)
			}
			prev = t
			a.Corpus.Annotate(p, t)
		}
	}

	a.MinDirect = d.count(0)
	bc := d.count(4)
	for i := 0; i < bc && d.err == nil; i++ {
		a.Border = append(a.Border, d.index(nt, "border term"))
	}

	nm := d.count(8)
	for mi := 0; mi < nm && d.err == nil; mi++ {
		nv := int(d.u8())
		if nv <= 0 || nv > graph.MaxDense {
			d.fail("motif %d size %d out of range", mi, nv)
			break
		}
		lm := &label.LabeledMotif{Pattern: graph.NewDense(nv), Labels: make([][]int32, nv)}
		ec := d.count(2)
		for i := 0; i < ec && d.err == nil; i++ {
			u := int(d.u8())
			v := int(d.u8())
			if u >= v || v >= nv {
				d.fail("motif %d edge {%d,%d} out of range", mi, u, v)
				break
			}
			lm.Pattern.AddEdge(u, v)
		}
		for v := 0; v < nv && d.err == nil; v++ {
			lc := d.count(4)
			for i := 0; i < lc && d.err == nil; i++ {
				lm.Labels[v] = append(lm.Labels[v], int32(d.index(nt, "label term")))
			}
		}
		oc := d.count(4 * nv)
		for i := 0; i < oc && d.err == nil; i++ {
			occ := make([]int32, nv)
			for v := 0; v < nv && d.err == nil; v++ {
				occ[v] = int32(d.index(n, "occurrence protein"))
			}
			lm.Occurrences = append(lm.Occurrences, occ)
		}
		lm.Frequency = d.count(0)
		lm.Uniqueness = d.f64()
		if d.err == nil {
			a.Motifs = append(a.Motifs, lm)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}

// encodeStats renders the build-stats section: stage count, then per
// stage its name, wall and busy nanoseconds, item count and worker count.
func encodeStats(e *enc, stats []obs.StageStat) {
	e.u32(uint32(len(stats)))
	for _, s := range stats {
		e.str(s.Name)
		e.u64(uint64(s.Wall.Nanoseconds()))
		e.u64(uint64(s.Items))
		e.u32(uint32(s.Workers))
		e.u64(uint64(s.Busy.Nanoseconds()))
	}
}

// statMinWidth is the smallest possible encoded stage: empty name (4-byte
// length) + wall + items + workers + busy.
const statMinWidth = 4 + 8 + 8 + 4 + 8

func decodeStats(d *dec) ([]obs.StageStat, error) {
	c := d.count(statMinWidth)
	stats := make([]obs.StageStat, 0, c)
	for i := 0; i < c && d.err == nil; i++ {
		var s obs.StageStat
		s.Name = d.str()
		s.Wall = time.Duration(d.u64())
		s.Items = int64(d.u64())
		s.Workers = int(d.u32())
		s.Busy = time.Duration(d.u64())
		if d.err == nil {
			stats = append(stats, s)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return stats, nil
}

// enc is a little-endian append-only payload encoder.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// dec is a bounds-checked payload decoder with a latched first error, so
// decode loops can run without per-read error plumbing.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("artifact: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("payload truncated at offset %d", d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *dec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *dec) f64() float64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

func (d *dec) str() string {
	n := d.u32()
	if n > maxCount {
		d.fail("string length %d exceeds limit", n)
		return ""
	}
	return string(d.take(int(n)))
}

// count reads a list length and validates it against the remaining payload,
// given each element occupies at least minWidth bytes (0 = the value is a
// plain non-negative integer, not a length).
func (d *dec) count(minWidth int) int {
	v := d.u32()
	if v > maxCount {
		d.fail("count %d exceeds limit", v)
		return 0
	}
	if minWidth > 0 && !d.room(int(v), minWidth) {
		return 0
	}
	return int(v)
}

// room reports whether the rest of the payload can hold n elements of at
// least width bytes each, failing the decode if not.
func (d *dec) room(n, width int) bool {
	if d.err == nil && n*width > len(d.b)-d.off {
		d.fail("count %d at offset %d overruns payload", n, d.off)
	}
	return d.err == nil
}

// index reads one index and validates it against an exclusive bound.
func (d *dec) index(n int, what string) int {
	v := d.u32()
	if d.err == nil && int(v) >= n {
		d.fail("%s %d out of range [0,%d)", what, v, n)
		return 0
	}
	return int(v)
}
