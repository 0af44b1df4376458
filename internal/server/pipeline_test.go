package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mesa/internal/experiments"
)

// serverCounters scrapes /metrics as JSON and returns the "server" section.
func serverCounters(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	var doc struct {
		Sections []struct {
			Name    string `json:"name"`
			Metrics []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, sec := range doc.Sections {
		if sec.Name == "server" {
			out := map[string]float64{}
			for _, m := range sec.Metrics {
				out[m.Name] = m.Value
			}
			return out
		}
	}
	t.Fatal("metrics have no server section")
	return nil
}

// TestServerCountersScripted pins the /metrics server counters after a fixed
// sequence that crosses every branch of the request path: a simulated
// single request, a rejected one, a disk replay, a batch with one bad item
// (one disk hit, one fresh simulation), and a draining rejection.
func TestServerCountersScripted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	store, err := experiments.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store})

	if w := post(t, s, `{"kernel":"nn"}`); w.Code != http.StatusOK {
		t.Fatalf("single: status %d: %s", w.Code, w.Body.String())
	}
	assertJSONError(t, post(t, s, `{"kernel":"no-such-kernel"}`), http.StatusNotFound)
	if w := post(t, s, `{"kernel":"nn"}`); w.Header().Get("X-Mesad-Cache") != "disk" {
		t.Fatalf("replay: X-Mesad-Cache = %q, want disk", w.Header().Get("X-Mesad-Cache"))
	}
	br := decodeBatch(t, postBatch(t, s,
		`{"requests":[{"kernel":"nn"},{"kernel":"no-such-kernel"},{"kernel":"kmeans"}]}`))
	for i, want := range []string{"disk", "", "miss"} {
		if br.Items[i].Cache != want {
			t.Errorf("batch item %d cache = %q, want %q", i, br.Items[i].Cache, want)
		}
	}
	s.Drain()
	assertJSONError(t, post(t, s, `{"kernel":"nn"}`), http.StatusServiceUnavailable, "shutting down")

	got := serverCounters(t, s)
	want := map[string]float64{
		"requests":          5,
		"batch_requests":    1,
		"batch_items":       3,
		"admitted":          3,
		"rejected_busy":     0,
		"rejected_draining": 1,
		"client_errors":     2,
		"server_errors":     1,
		"resp_disk_hits":    2,
		"resp_disk_writes":  2,
		"panics":            0,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("server.%s = %v, want %v", name, got[name], v)
		}
	}
}

// TestBatchDuplicatesColdMiss: every item of a cold batch misses the
// response store, duplicates included. The batch looks every item up before
// any item simulates, so a duplicate never reads the bytes its twin just
// wrote, and its Cache field cannot depend on scheduling.
func TestBatchDuplicatesColdMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	defer experiments.SetWorkers(experiments.SetWorkers(2))
	store, err := experiments.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store})
	br := decodeBatch(t, postBatch(t, s,
		`{"requests":[{"kernel":"nn"},{"kernel":"kmeans"},{"kernel":"nn"},{"kernel":"nn","mapper":""}]}`))
	for i, item := range br.Items {
		if item.Status != http.StatusOK || item.Cache != "miss" {
			t.Errorf("item %d: status %d cache %q, want 200 miss", i, item.Status, item.Cache)
		}
	}
	if hits := serverCounters(t, s)["resp_disk_hits"]; hits != 0 {
		t.Errorf("resp_disk_hits = %v after a cold batch, want 0", hits)
	}
	if n, err := store.Len(); err != nil || n != 2 {
		t.Errorf("store holds %d entries (err %v), want 2", n, err)
	}
}

// TestCoresThatCannotMatterShareOneEntry: a core count only reaches the
// response through a parallel kernel's multicore baseline. For a serial
// kernel or a raw program, spelling one out must give the same body and the
// same response-store entry as leaving it out.
func TestCoresThatCannotMatterShareOneEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	// addi x5,x0,100 ; addi x6,x6,1 ; addi x5,x5,-1 ; bne x5,x0,-8 ; ecall
	raw := `{"base":4096,"words":[104858259,1245971,4294083219,4261584099,115]}`
	for _, pair := range [][2]string{
		{`{"kernel":"bfs"}`, `{"kernel":"bfs","cores":4}`},
		{`{"program":` + raw + `}`, `{"program":` + raw + `,"cores":8}`},
	} {
		store, err := experiments.OpenDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Store: store})
		a, b := post(t, s, pair[0]), post(t, s, pair[1])
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s / %s: status %d / %d", pair[0], pair[1], a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s and %s return different bodies", pair[0], pair[1])
		}
		if n, err := store.Len(); err != nil || n != 1 {
			t.Errorf("%s and %s left %d store entries (err %v), want 1", pair[0], pair[1], n, err)
		}
	}
}
