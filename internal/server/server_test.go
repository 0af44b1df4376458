package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mesa/internal/experiments"
)

// post issues a request body against a fresh handler and returns the
// recorder.
func post(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// assertJSONError checks status and that the body is a well-formed Error
// document mentioning every fragment.
func assertJSONError(t *testing.T, w *httptest.ResponseRecorder, status int, fragments ...string) {
	t.Helper()
	if w.Code != status {
		t.Errorf("status = %d, want %d (body: %s)", w.Code, status, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var e Error
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v (body: %s)", err, w.Body.String())
	}
	if e.Msg == "" {
		t.Error("error body has an empty error message")
	}
	for _, f := range fragments {
		if !strings.Contains(e.Msg, f) {
			t.Errorf("error %q does not mention %q", e.Msg, f)
		}
	}
}

// TestHandlerErrors is the 4xx/5xx satellite matrix: every malformed or
// invalid request must produce the right status with a JSON error body and
// never a panic.
func TestHandlerErrors(t *testing.T) {
	s := New(Config{})

	t.Run("malformed JSON", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernel": "nn"`), http.StatusBadRequest)
	})
	t.Run("unknown field", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernle": "nn"}`), http.StatusBadRequest)
	})
	t.Run("trailing data", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernel":"nn"} trailing garbage`), http.StatusBadRequest, "trailing")
	})
	t.Run("trailing newline", func(t *testing.T) {
		// A trailing newline is whitespace: the body decodes and the request
		// fails later, on the kernel name.
		assertJSONError(t, post(t, s, "{\"kernel\":\"no-such-kernel\"}\n"), http.StatusNotFound, "no-such-kernel")
	})
	t.Run("neither kernel nor program", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{}`), http.StatusBadRequest)
	})
	t.Run("both kernel and program", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernel":"nn","program":{"words":[19]}}`), http.StatusBadRequest, "exactly one")
	})
	t.Run("unknown kernel", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernel":"no-such-kernel"}`), http.StatusNotFound, "no-such-kernel")
	})
	t.Run("unknown mapper", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernel":"nn","mapper":"quantum"}`), http.StatusBadRequest, "quantum")
	})
	t.Run("unknown backend", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernel":"nn","backend":"M-9000"}`), http.StatusBadRequest, "M-9000")
	})
	t.Run("cores out of range", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"kernel":"nn","cores":1000}`), http.StatusBadRequest, "cores")
	})
	t.Run("empty program", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"program":{"words":[]}}`), http.StatusBadRequest, "no words")
	})
	t.Run("oversized program", func(t *testing.T) {
		words := make([]string, MaxProgramWords+1)
		for i := range words {
			words[i] = "19" // nop (addi x0,x0,0)
		}
		body := fmt.Sprintf(`{"program":{"words":[%s]}}`, strings.Join(words, ","))
		assertJSONError(t, post(t, s, body), http.StatusRequestEntityTooLarge, "too large")
	})
	t.Run("unencodable program word", func(t *testing.T) {
		// 0xffffffff decodes as no RV32IMF instruction.
		assertJSONError(t, post(t, s, `{"program":{"words":[19, 4294967295]}}`),
			http.StatusUnprocessableEntity, "word 1")
	})
	t.Run("misaligned base", func(t *testing.T) {
		assertJSONError(t, post(t, s, `{"program":{"base":2,"words":[19]}}`), http.StatusBadRequest, "word-aligned")
	})
	t.Run("GET simulate", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/v1/simulate", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		assertJSONError(t, w, http.StatusMethodNotAllowed)
	})
}

// TestHandlerShutdown: once Drain is called, new simulation requests get a
// 503 JSON body, while work that was already admitted before the drain still
// completes — http.Server.Shutdown waits for in-flight handlers, and the
// drain flag is only consulted at handler entry, never mid-simulation.
func TestHandlerShutdown(t *testing.T) {
	s := New(Config{Admission: 1})
	admitted := make(chan struct{})
	release := make(chan struct{})

	// Model a request already past admission when Drain lands: it holds the
	// gate and is "simulating" until released.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.gate <- struct{}{}
		close(admitted)
		<-release
		// The in-flight request's simulation runs to completion during the
		// drain: the drain flag must not reach into running work.
		if _, err := s.Simulate(&Request{Kernel: "nn"}); err != nil {
			t.Errorf("in-flight simulation failed during drain: %v", err)
		}
		<-s.gate
	}()
	<-admitted

	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain()")
	}
	// A request arriving during shutdown is refused up front with a JSON 503.
	assertJSONError(t, post(t, s, `{"kernel":"nn"}`), http.StatusServiceUnavailable, "shutting down")

	close(release)
	wg.Wait()
}

// TestHandlerSimulateOK: a valid kernel request returns 200 with a parseable
// response carrying the attribution report, and the body equals the direct
// library call's encoding.
func TestHandlerSimulateOK(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s := New(Config{})
	w := post(t, s, `{"kernel":"nn","mapper":"greedy"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kernel != "nn" || resp.Backend != "M-128" || resp.Mapper != "greedy" {
		t.Errorf("echoed identity wrong: %+v", resp)
	}
	if !resp.Qualified || resp.Loop == nil || resp.Attribution == nil {
		t.Fatalf("nn must qualify with a loop summary and attribution: %s", w.Body.String())
	}
	if resp.Loop.TotalCycles <= 0 || resp.Speedup <= 0 {
		t.Errorf("degenerate result: %+v", resp.Loop)
	}

	direct, err := s.Simulate(&Request{Kernel: "nn", Mapper: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResponse(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Error("handler body differs from direct library call encoding")
	}
}

// TestHandlerRawProgram: a raw RV32IMF word stream simulates end to end (a
// small counted loop, which the detector may or may not accelerate — the
// contract is a 200 with a CPU baseline, no panic, and byte-identity with
// the library call).
func TestHandlerRawProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	// addi x5,x0,100 ; addi x6,x6,1 ; addi x5,x5,-1 ; bne x5,x0,-8 ; ecall
	words := []uint32{0x06400293, 0x00130313, 0xfff28293, 0xfe029ce3, 0x00000073}
	body, _ := json.Marshal(Request{Program: &RawProgram{Base: 0x1000, Words: words}})
	s := New(Config{})
	w := post(t, s, string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CPU.Cycles <= 0 {
		t.Errorf("raw program CPU baseline = %v, want > 0", resp.CPU.Cycles)
	}
	direct, err := s.Simulate(&Request{Program: &RawProgram{Base: 0x1000, Words: words}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResponse(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Error("raw-program handler body differs from direct library call")
	}
}

// TestHandlerQueueFull: requests beyond admission+queue are rejected with
// 503 rather than piling up.
func TestHandlerQueueFull(t *testing.T) {
	s := New(Config{Admission: 1, QueueDepth: 1})
	// Occupy the single admission slot.
	s.gate <- struct{}{}
	// Occupy the single queue slot with a request that blocks waiting for
	// the gate; detect occupancy via the queued counter.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := post(t, s, `{"kernel":"nn"}`)
		if w.Code != http.StatusOK {
			t.Errorf("queued request: status %d, want 200 once the gate frees", w.Code)
		}
	}()
	for s.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Queue is full now: the next request must bounce immediately.
	assertJSONError(t, post(t, s, `{"kernel":"nn"}`), http.StatusServiceUnavailable, "capacity")
	// Free the gate; the queued request proceeds and completes.
	<-s.gate
	wg.Wait()
}

// TestMetricsEndpoint: /metrics serves the obs registry with the server,
// pool, and sim-cache sections.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var doc struct {
		Sections []struct {
			Name    string `json:"name"`
			Metrics []struct {
				Name string `json:"name"`
			} `json:"metrics"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	want := map[string]bool{"server": false, "experiments.pool": false, "experiments.memo": false}
	for _, sec := range doc.Sections {
		if _, ok := want[sec.Name]; ok {
			want[sec.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metrics missing section %q", name)
		}
	}
}

// TestKernelsEndpoint lists every built-in kernel.
func TestKernelsEndpoint(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/kernels", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var ks []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ks); err != nil {
		t.Fatal(err)
	}
	if len(ks) != 17 {
		t.Errorf("listed %d kernels, want 17", len(ks))
	}
}

// TestResponseStoreReplay: with a response store attached, a second
// identical request is served byte-identically from disk (X-Mesad-Cache:
// disk) even after the in-memory caches are wiped.
func TestResponseStoreReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	store, err := experiments.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store})
	cold := post(t, s, `{"kernel":"nn"}`)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.Code, cold.Body.String())
	}
	if got := cold.Header().Get("X-Mesad-Cache"); got != "miss" {
		t.Errorf("cold X-Mesad-Cache = %q, want miss", got)
	}

	experiments.ResetSimMemo() // "restart"
	warm := post(t, s, `{"kernel":"nn"}`)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm status %d", warm.Code)
	}
	if got := warm.Header().Get("X-Mesad-Cache"); got != "disk" {
		t.Errorf("warm X-Mesad-Cache = %q, want disk", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("disk-replayed response differs from cold response")
	}
}
