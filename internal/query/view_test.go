package query

import (
	"bytes"
	"fmt"
	"testing"

	"lamofinder/internal/jsonx"
)

// TestViewText pins the view's pre-encoded text to the encoders it
// replaces: every score is jsonx.AppendFloat of its value (empty when not
// positive) and every protein and category name is jsonx.AppendString of
// it. A second view over category names that need escaping covers the
// quoting, and every row of the widest projection fits rowBound.
func TestViewText(t *testing.T) {
	escaped := *mipsArtifact() // shares the graph and the score index
	escaped.FunctionNames = make([]string, escaped.NumFunctions)
	for f := range escaped.FunctionNames {
		escaped.FunctionNames[f] = fmt.Sprintf("cat %d <&> \"q\\\" \u2028 \b \xff", f)
	}
	ev, err := NewView(&escaped, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := []uint8{colProtein, colDegree, colFunction, colName, colScore}
	for _, v := range []*View{mipsView(), ev} {
		bound := v.rowBound(all)
		for p := 0; p < v.NumProteins(); p++ {
			if got, want := v.nameText.at(p), jsonx.AppendString(nil, v.Name(p)); !bytes.Equal(got, want) {
				t.Fatalf("protein %d name: view %s, jsonx %s", p, got, want)
			}
		}
		for f := 0; f < v.NumFunctions(); f++ {
			if got, want := v.FunctionJSON(f), jsonx.AppendString(nil, v.fnNames[f]); !bytes.Equal(got, want) {
				t.Fatalf("category %d name: view %s, jsonx %s", f, got, want)
			}
			for p, s := range v.Column(f) {
				var want []byte
				if s > 0 {
					want = jsonx.AppendFloat(nil, s)
				}
				if got := v.ScoreJSON(p, f); !bytes.Equal(got, want) {
					t.Fatalf("protein %d category %d score %v: view %q, jsonx %q", p, f, s, got, want)
				}
				if s > 0 {
					if row := appendRow(nil, v, all, int32(p), int32(f)); len(row) > bound {
						t.Fatalf("row %s is %d bytes, rowBound says at most %d", row, len(row), bound)
					}
				}
			}
		}
	}
}
