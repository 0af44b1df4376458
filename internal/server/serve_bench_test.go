package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeWarm times the serving layer alone: a warm single request
// and a warm eight-item batch through Handler(), so every simulation is a
// memo hit and what remains is decode, admission, lookup, encode and the
// HTTP plumbing around them.
func BenchmarkServeWarm(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	items := make([]string, 8)
	for i, k := range []string{"nn", "kmeans", "hotspot", "pathfinder"} {
		items[2*i] = fmt.Sprintf(`{"kernel":%q}`, k)
		items[2*i+1] = fmt.Sprintf(`{"kernel":%q,"backend":"M-512"}`, k)
	}
	serve := func(b *testing.B, path, body string) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
		}
	}
	for _, c := range []struct{ name, path, body string }{
		{"single", "/v1/simulate", items[0]},
		{"batch8", "/v1/simulate/batch", `{"requests":[` + strings.Join(items, ",") + `]}`},
	} {
		serve(b, c.path, c.body) // warm the memo outside the timed loop
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve(b, c.path, c.body)
			}
		})
	}
}
