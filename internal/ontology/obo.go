package ontology

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseOBO reads a minimal subset of the OBO flat-file format — [Term]
// stanzas with id, name, is_a and relationship: part_of lines — and builds
// an Ontology. Obsolete terms (is_obsolete: true) are skipped.
func ParseOBO(r io.Reader) (*Ontology, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)

	type stanza struct {
		id, name string
		altIDs   []string
		isA      []string
		partOf   []string
		obsolete bool
	}
	altOf := map[string]string{} // alt_id -> primary id
	var cur *stanza
	inTerm := false
	flush := func() {
		if cur == nil || cur.id == "" || cur.obsolete {
			cur = nil
			return
		}
		b.AddTerm(cur.id, cur.name)
		for _, a := range cur.altIDs {
			altOf[a] = cur.id
		}
		for _, p := range cur.isA {
			b.AddRelation(cur.id, p, IsA)
		}
		for _, p := range cur.partOf {
			b.AddRelation(cur.id, p, PartOf)
		}
		cur = nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "!") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			flush()
			inTerm = line == "[Term]"
			if inTerm {
				cur = &stanza{}
			}
			continue
		}
		if !inTerm || cur == nil {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("obo: line %d: missing ':' in %q", lineNo, line)
		}
		val = strings.TrimSpace(val)
		// Strip trailing comments ("GO:0001 ! some name").
		if i := strings.Index(val, "!"); i >= 0 {
			val = strings.TrimSpace(val[:i])
		}
		switch strings.TrimSpace(key) {
		case "id":
			cur.id = val
		case "alt_id":
			cur.altIDs = append(cur.altIDs, val)
		case "name":
			cur.name = val
		case "is_a":
			cur.isA = append(cur.isA, val)
		case "is_obsolete":
			cur.obsolete = val == "true"
		case "relationship":
			rel, target, ok := strings.Cut(val, " ")
			if ok && strings.TrimSpace(rel) == "part_of" {
				cur.partOf = append(cur.partOf, strings.TrimSpace(target))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obo: %w", err)
	}
	flush()
	o, err := b.Build()
	if err != nil {
		return nil, err
	}
	for alt, primary := range altOf {
		o.addAlias(alt, primary)
	}
	return o, nil
}
