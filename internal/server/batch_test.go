package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mesa/internal/experiments"
)

// postBatch issues a POST /v1/simulate/batch body and returns the recorder.
func postBatch(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// decodeBatch parses a 200 batch response.
func decodeBatch(t *testing.T, w *httptest.ResponseRecorder) *BatchResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", w.Code, w.Body.String())
	}
	var br BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatalf("batch response not JSON: %v", err)
	}
	if br.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", br.SchemaVersion, SchemaVersion)
	}
	return &br
}

// withNewline restores the trailing newline JSON decoding strips from an
// item body, yielding the exact bytes the single-request handler writes.
func withNewline(body json.RawMessage) []byte {
	return append(append([]byte(nil), body...), '\n')
}

// TestBatchErrors is the batch-level 4xx matrix: a malformed batch is
// rejected as a whole with the uniform Error document, before any item runs.
func TestBatchErrors(t *testing.T) {
	s := New(Config{})

	t.Run("GET", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/v1/simulate/batch", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		assertJSONError(t, w, http.StatusMethodNotAllowed)
	})
	t.Run("malformed JSON", func(t *testing.T) {
		assertJSONError(t, postBatch(t, s, `{"requests": [`), http.StatusBadRequest)
	})
	t.Run("unknown field", func(t *testing.T) {
		assertJSONError(t, postBatch(t, s, `{"request": []}`), http.StatusBadRequest)
	})
	t.Run("trailing data", func(t *testing.T) {
		assertJSONError(t, postBatch(t, s, `{"requests":[{"kernel":"nn"}]} {}`), http.StatusBadRequest, "trailing")
	})
	t.Run("empty batch", func(t *testing.T) {
		assertJSONError(t, postBatch(t, s, `{"requests": []}`), http.StatusBadRequest, "no requests")
	})
	t.Run("too many items", func(t *testing.T) {
		items := make([]string, MaxBatchItems+1)
		for i := range items {
			items[i] = `{"kernel":"nn"}`
		}
		body := fmt.Sprintf(`{"requests":[%s]}`, strings.Join(items, ","))
		assertJSONError(t, postBatch(t, s, body), http.StatusRequestEntityTooLarge, "batch too large")
	})
	t.Run("draining", func(t *testing.T) {
		d := New(Config{})
		d.Drain()
		assertJSONError(t, postBatch(t, d, `{"requests":[{"kernel":"nn"}]}`),
			http.StatusServiceUnavailable, "shutting down")
	})
}

// TestBatchItemErrors: invalid items fail individually with the same status
// and Error document the single endpoint would return, without failing the
// batch or the valid items around them.
func TestBatchItemErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s := New(Config{})
	br := decodeBatch(t, postBatch(t, s,
		`{"requests":[{"kernel":"no-such-kernel"},{"kernel":"nn","mapper":"quantum"},{"kernel":"nn"}]}`))
	if len(br.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(br.Items))
	}
	if br.Items[0].Status != http.StatusNotFound || br.Items[1].Status != http.StatusBadRequest {
		t.Errorf("error item statuses = %d, %d, want 404, 400", br.Items[0].Status, br.Items[1].Status)
	}
	if br.Items[2].Status != http.StatusOK {
		t.Errorf("valid item status = %d, want 200 (body: %s)", br.Items[2].Status, br.Items[2].Body)
	}

	// Each error body is byte-identical to the single-request error body.
	for i, single := range []string{`{"kernel":"no-such-kernel"}`, `{"kernel":"nn","mapper":"quantum"}`} {
		w := post(t, s, single)
		if w.Code != br.Items[i].Status {
			t.Errorf("item %d status %d, single request %d", i, br.Items[i].Status, w.Code)
		}
		if !bytes.Equal(withNewline(br.Items[i].Body), w.Body.Bytes()) {
			t.Errorf("item %d error body differs from single request:\nbatch:  %s\nsingle: %s",
				i, br.Items[i].Body, w.Body.String())
		}
	}
}

// TestBatchByteIdentity is the endpoint's core contract: every item body —
// named kernels across backends and mappers, duplicates, and raw programs —
// is byte-identical to what POST /v1/simulate returns for the same request.
// The batch runs first (cold, fanned out over the worker pool), the singles
// after (warm memo hits): equality proves the batch publishes exactly the
// bytes the single-request path computes.
func TestBatchByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	experiments.ResetSimMemo()
	defer experiments.ResetSimMemo()

	// addi x5,x0,100 ; addi x6,x6,1 ; addi x5,x5,-1 ; bne x5,x0,-8 ; ecall
	rawWords := []uint32{0x06400293, 0x00130313, 0xfff28293, 0xfe029ce3, 0x00000073}
	requests := []Request{
		{Kernel: "nn"},
		{Kernel: "nn", Backend: "M-512"},
		{Kernel: "kmeans", Mapper: "congestion"},
		{Kernel: "hotspot", Cores: 4},
		{Kernel: "nn"}, // duplicate of item 0
		{Program: &RawProgram{Base: 0x1000, Words: rawWords}},
	}
	singles := make([]string, len(requests))
	for i := range requests {
		b, err := json.Marshal(requests[i])
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = string(b)
	}
	s := New(Config{})
	br := decodeBatch(t, postBatch(t, s, fmt.Sprintf(`{"requests":[%s]}`, strings.Join(singles, ","))))
	if len(br.Items) != len(singles) {
		t.Fatalf("items = %d, want %d", len(br.Items), len(singles))
	}
	for i, body := range singles {
		item := br.Items[i]
		if item.Status != http.StatusOK {
			t.Errorf("item %d status = %d (body: %s)", i, item.Status, item.Body)
			continue
		}
		if item.Cache != "miss" {
			t.Errorf("item %d cache = %q, want miss", i, item.Cache)
		}
		w := post(t, s, body)
		if w.Code != http.StatusOK {
			t.Fatalf("single request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if !bytes.Equal(withNewline(item.Body), w.Body.Bytes()) {
			t.Errorf("item %d body differs from single request:\nbatch:  %s\nsingle: %s",
				i, item.Body, w.Body.String())
		}
	}
	// Duplicate items resolve to identical bytes.
	if !bytes.Equal(br.Items[0].Body, br.Items[4].Body) {
		t.Error("duplicate batch items returned different bodies")
	}
}

// TestBatchResponseStore: with a response store attached, a repeated batch
// replays every item from disk byte-identically, and batch-written entries
// serve single requests (the fingerprint space is shared).
func TestBatchResponseStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	store, err := experiments.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store})
	body := `{"requests":[{"kernel":"nn"},{"kernel":"kmeans"}]}`

	cold := decodeBatch(t, postBatch(t, s, body))
	for i, item := range cold.Items {
		if item.Status != http.StatusOK || item.Cache != "miss" {
			t.Fatalf("cold item %d: status %d cache %q", i, item.Status, item.Cache)
		}
	}

	experiments.ResetSimMemo() // "restart"
	warm := decodeBatch(t, postBatch(t, s, body))
	for i, item := range warm.Items {
		if item.Status != http.StatusOK {
			t.Fatalf("warm item %d: status %d", i, item.Status)
		}
		if item.Cache != "disk" {
			t.Errorf("warm item %d cache = %q, want disk", i, item.Cache)
		}
		if !bytes.Equal(item.Body, cold.Items[i].Body) {
			t.Errorf("warm item %d body differs from cold", i)
		}
	}

	// A single request for a batch-warmed entry replays from disk too.
	w := post(t, s, `{"kernel":"nn"}`)
	if got := w.Header().Get("X-Mesad-Cache"); got != "disk" {
		t.Errorf("single request after batch: X-Mesad-Cache = %q, want disk", got)
	}
	if !bytes.Equal(w.Body.Bytes(), withNewline(cold.Items[0].Body)) {
		t.Error("single request body differs from batch item body")
	}
}

// simMemoMisses reads the simulation memo's miss counter.
func simMemoMisses() float64 {
	for _, m := range experiments.SimMemoMetrics() {
		if m.Name == "sim_cache_misses" {
			return m.Value
		}
	}
	return 0
}

// TestBatchConcurrentFanOut: a cold batch with duplicate items, answered on
// two workers, returns every item byte-equal to its POST /v1/simulate body,
// and the memo's single-flight holds under the fan-out — the batch misses
// exactly as often as its distinct requests do when sent one by one.
func TestBatchConcurrentFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	defer experiments.SetWorkers(experiments.SetWorkers(2))
	experiments.ResetSimMemo()
	defer experiments.ResetSimMemo()

	distinct := []string{`{"kernel":"nn"}`, `{"kernel":"kmeans"}`, `{"kernel":"pathfinder"}`}
	// The first two items are the same request, so the two workers start
	// them together and race for one memo key.
	singles := []string{distinct[0], distinct[0], distinct[1], distinct[2], distinct[0]}
	s := New(Config{})
	br := decodeBatch(t, postBatch(t, s, fmt.Sprintf(`{"requests":[%s]}`, strings.Join(singles, ","))))
	batchMisses := simMemoMisses()
	if len(br.Items) != len(singles) {
		t.Fatalf("items = %d, want %d", len(br.Items), len(singles))
	}

	experiments.ResetSimMemo()
	for _, body := range distinct {
		if w := post(t, s, body); w.Code != http.StatusOK {
			t.Fatalf("single request %s: status %d: %s", body, w.Code, w.Body.String())
		}
	}
	if singleMisses := simMemoMisses(); batchMisses != singleMisses {
		t.Errorf("batch of %d items (%d distinct) missed the memo %v times, the distinct singles %v",
			len(singles), len(distinct), batchMisses, singleMisses)
	}

	for i, body := range singles {
		item := br.Items[i]
		if item.Status != http.StatusOK {
			t.Errorf("item %d status = %d (body: %s)", i, item.Status, item.Body)
			continue
		}
		if w := post(t, s, body); !bytes.Equal(withNewline(item.Body), w.Body.Bytes()) {
			t.Errorf("item %d body differs from single request:\nbatch:  %s\nsingle: %s",
				i, item.Body, w.Body.String())
		}
	}
}
