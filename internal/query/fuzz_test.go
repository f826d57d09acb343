package query

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzPlan decodes its input as a JSON plan, the way POST /v1/query does,
// and executes it on the MIPS fixture view. A rejected plan must name the
// offending field. An accepted plan must not panic, must stream JSON whose
// row_count equals its number of rows, and must stream the same bytes at
// parallelism 1 and 4. The committed corpus (testdata/fuzz/FuzzPlan)
// holds one plan of each kind, with and without filters, plus rejected
// ones.
func FuzzPlan(f *testing.F) {
	f.Add([]byte(`{"topk":5}`))
	f.Add([]byte(`{"group_by":"category","topk":3,"filter":[{"field":"annotated","op":"eq","bool":false}]}`))
	v := mipsView()
	f.Fuzz(func(t *testing.T, data []byte) {
		var plan Plan
		if json.NewDecoder(bytes.NewReader(data)).Decode(&plan) != nil {
			return // the daemon answers an undecodable body before planning
		}
		res, fe := Execute(v, &plan, 1)
		if fe != nil {
			if fe.Field == "" {
				t.Fatalf("%s: rejected without a field: %v", data, fe)
			}
			return
		}
		body := res.Bytes()
		var dec response
		if err := json.Unmarshal(body, &dec); err != nil {
			t.Fatalf("%s: response does not parse: %v\n%s", data, err, body)
		}
		if dec.RowCount != len(dec.Rows) {
			t.Fatalf("%s: row_count %d but %d rows", data, dec.RowCount, len(dec.Rows))
		}
		// Explain carries wall times, so compare the rows without it.
		plan.Explain = false
		one, _ := Execute(v, &plan, 1)
		four, _ := Execute(v, &plan, 4)
		if !bytes.Equal(one.Bytes(), four.Bytes()) {
			t.Fatalf("%s: parallelism 1 and 4 stream different bytes", data)
		}
	})
}
