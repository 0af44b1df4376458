package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSimulateRequest drives arbitrary bodies through the request path's
// decode and normalize steps, which every simulation endpoint shares; no
// simulation runs. Whatever the input, the path never panics and ends in
// one of two ways: a 4xx *Error whose rendered body decodes back to the
// same Error, or a normalized request whose fingerprint a second
// normalization reproduces. The seed corpus (named kernel, raw program,
// trailing data, unknown field, too many words, misaligned base) lives in
// testdata/fuzz/FuzzSimulateRequest and replays in plain `go test`.
func FuzzSimulateRequest(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		var req Request
		e := s.decode(httptest.NewRecorder(), r, maxBodyBytes, &req)
		var n *normalized
		if e == nil {
			n, e = s.normalize(&req)
		}
		if e != nil {
			if e.Status < 400 || e.Status > 499 {
				t.Fatalf("status %d for a client-side failure: %s", e.Status, e.Msg)
			}
			var back Error
			if err := json.Unmarshal(s.errorBody(e), &back); err != nil || back != *e {
				t.Fatalf("error body does not round-trip: %+v -> %+v (%v)", *e, back, err)
			}
			return
		}
		again, e := s.normalize(&req)
		if e != nil {
			t.Fatalf("second normalize failed: %v", e)
		}
		if n.fingerprint() != again.fingerprint() {
			t.Fatal("fingerprint differs between two normalizations of one request")
		}
	})
}
