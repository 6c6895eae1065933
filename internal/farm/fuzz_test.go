package farm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/harness"
)

// jobKey runs body through the POST /jobs path up to the point a job is
// keyed: strict decoding, the submit-time validation and the run key. ok is
// false when the farm refuses the body.
func jobKey(body []byte) (p harness.RunParams, key string, ok bool) {
	r := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	if err := decodeBody(r, &p); err != nil {
		return p, "", false
	}
	if err := validate(p); err != nil {
		return p, "", false
	}
	return p, p.Spec().Key(), true
}

// FuzzJobBody feeds arbitrary bytes to the farm's only JSON entry point. A
// body is refused with an error or keyed, never a panic; and a job the farm
// accepts is accepted again, under the same key, after the client's
// re-encoding, so client and farm agree on which job a run is.
func FuzzJobBody(f *testing.F) {
	const job = `"benchmark":"hashmap","config":"C","ops_per_thread":4,"retry_limit":2,"seed":1`
	for _, body := range []string{
		`{"benchmark":"hashmap","config":"C","cores":32,"ops_per_thread":120,"retry_limit":4,"seed":1,"max_ticks":400000000}`,
		`{` + job + `,"cores":4,"policy":"retry:n=3,backoff=none"}`,
		`{` + job + `,"cores":4,"policy":"ewma:alpha=0.5"}`,
		`{` + job + `,"cores":4,"fault_plan":{"NackRate":0.1,"StallRate":1,"StallTicks":40}}`,
		`{` + job + `,"cores":2,"ert_entries":8,"crt_entries":16,"crt_ways":4}`,
		`{` + job + `,"cores":65}`,
		`{` + job + `,"cores":4,"fault_plan":{"EventDelayRate":1,"EventDelayMax":9223372036854775808}}`,
		`{` + job + `,"cores":2}{"cores":64} trailing garbage`,
		`{"BENCHMARK":"hashmap","config":"C","CORES":2,"ops_per_thread":4,"retry_limit":2,"seed":1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, key, ok := jobKey(body)
		if !ok {
			return
		}
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted job does not encode: %v", err)
		}
		if _, again, ok := jobKey(wire); !ok || again != key {
			t.Fatalf("re-encoded job %s: accepted %v, key %q, want %q", wire, ok, again, key)
		}
	})
}
