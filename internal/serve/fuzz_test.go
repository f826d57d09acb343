package serve

import (
	"net/url"
	"slices"
	"testing"
)

// FuzzPredictQuery checks the GET /v1/predict query scanner against
// url.ParseQuery: the same protein values in the same order, and the same
// first k. The committed corpus (testdata/fuzz/FuzzPredictQuery) holds
// percent-escaped keys.
func FuzzPredictQuery(f *testing.F) {
	f.Add("protein=M0000&protein=M0001&k=5")
	f.Add("protein=a+b&protein=%4D0002;x&k=&k=3")
	f.Fuzz(func(t *testing.T, raw string) {
		var sc scratch
		k := parsePredictQuery(raw, &sc)
		want, _ := url.ParseQuery(raw) // the pairs it could read, as the handler sees them
		if !slices.Equal(sc.proteins, want["protein"]) || k != want.Get("k") {
			t.Fatalf("%q: scanner read proteins %q and k %q, url.ParseQuery %q and %q",
				raw, sc.proteins, k, want["protein"], want.Get("k"))
		}
	})
}
