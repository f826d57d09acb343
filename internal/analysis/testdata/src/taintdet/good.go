package fixture

import (
	"math/rand"
	"sort"
	"strconv"

	"lamofinder/internal/analysis/testdata/src/taintdet/helper"
)

// sortStrings wraps sort.Strings so fixtures exercise sanitization both
// directly and through a module-internal helper.
func sortStrings(s []string) {
	sort.Strings(s)
}

// GoodSorted is the sanctioned collect-then-sort idiom: sorting clears the
// order taint the helper minted, so the sink sees a deterministic slice.
func GoodSorted(m map[string]int) int {
	keys := helper.Keys(m)
	sort.Strings(keys)
	return Emit(keys)
}

// GoodSeeded draws from an injected, caller-seeded generator: method calls
// on a *rand.Rand are the sanctioned pattern and stay clean.
func GoodSeeded(r *rand.Rand) int {
	return Emit([]string{strconv.Itoa(r.Intn(100))})
}

// GoodPlain serializes plain inputs: no taint anywhere.
func GoodPlain(names []string, rep *Report) int {
	rep.Lines = names
	return Emit(names)
}

// Quoted quotes the sink marker in prose: "lamovet:sink" declares a sink
// only on a comment line that starts with it, so Quoted is no sink.
func Quoted(lines []string) int {
	return len(lines)
}

// Notes is no serialized payload: its field's comment only quotes the
// marker.
type Notes struct {
	Lines []string // kept apart from "lamovet:serialized" fields
}

// GoodQuoted hands map-ordered keys to Quoted and into Notes.Lines,
// neither of which serializes anything.
func GoodQuoted(m map[string]int, n *Notes) int {
	n.Lines = helper.Keys(m)
	return Quoted(helper.Keys(m))
}
