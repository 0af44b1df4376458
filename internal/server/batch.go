package server

import (
	"context"
	"encoding/json"
	"net/http"

	"mesa/internal/experiments"
)

// MaxBatchItems bounds one POST /v1/simulate/batch request. A batch counts
// as one admission slot (its items simulate concurrently inside it on the
// experiments worker pool), so the cap keeps a single request from
// monopolising the simulation layer.
const MaxBatchItems = 64

// maxBatchBodyBytes bounds the batch request body: MaxBatchItems raw-program
// requests would not fit in the single-request limit.
const maxBatchBodyBytes = 8 * maxBodyBytes

// BatchRequest is the POST /v1/simulate/batch body: up to MaxBatchItems
// independent simulation requests answered in one round trip.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItem is one element of a batch response. Body carries exactly the
// bytes the same request would have received from POST /v1/simulate (the
// response document on 2xx, the Error document otherwise) minus that
// response's trailing newline, which JSON decoding strips; Cache mirrors the
// X-Mesad-Cache header ("disk" or "miss") and lives outside Body so bodies
// stay pure functions of the request.
type BatchItem struct {
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse is the POST /v1/simulate/batch response. The HTTP status is
// 200 whenever the batch itself was well-formed; per-item failures live in
// Items[i].Status.
type BatchResponse struct {
	SchemaVersion int         `json:"schema_version"`
	Items         []BatchItem `json:"items"`
}

// batchItemState tracks one batch element through the pipeline.
type batchItemState struct {
	norm *normalized
	key  string
	item BatchItem
	done bool
}

// finish records an item's final disposition.
func (st *batchItemState) finish(status int, cache string, body []byte) {
	st.item = BatchItem{Status: status, Cache: cache, Body: body}
	st.done = true
}

// errItem resolves an item to the same Error document the single-request
// handler would have written.
func (st *batchItemState) errItem(s *Server, e *Error) {
	if e.Status >= 500 {
		s.serverErrors.Add(1)
	} else {
		s.clientErrors.Add(1)
	}
	data, _ := json.Marshal(e)
	st.finish(e.Status, "", append(data, '\n'))
}

// handleSimulateBatch answers many simulation requests in one round trip:
// per-item validation and response-store lookups first, then the remaining
// items fan out over the experiments worker pool, each answered through the
// exact single-request path — so every item body is byte-identical to what
// POST /v1/simulate would have returned for that request, cold or warm. The
// simulation memo is single-flight, so duplicate items simulate once.
func (s *Server) handleSimulateBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.batchRequests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, errf(http.StatusMethodNotAllowed, "use POST"))
		return
	}
	if s.draining.Load() {
		s.rejectedDraining.Add(1)
		s.writeError(w, errf(http.StatusServiceUnavailable, "server is shutting down"))
		return
	}

	var breq BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		s.writeError(w, errf(http.StatusBadRequest, "bad request body: %v", err))
		return
	}
	if len(breq.Requests) == 0 {
		s.writeError(w, errf(http.StatusBadRequest, "batch has no requests"))
		return
	}
	if len(breq.Requests) > MaxBatchItems {
		s.writeError(w, errf(http.StatusRequestEntityTooLarge,
			"batch too large: %d requests (limit %d)", len(breq.Requests), MaxBatchItems))
		return
	}
	s.batchItems.Add(uint64(len(breq.Requests)))

	items := make([]batchItemState, len(breq.Requests))
	for i := range breq.Requests {
		st := &items[i]
		n, apiErr := s.normalize(&breq.Requests[i])
		if apiErr != nil {
			st.errItem(s, apiErr)
			continue
		}
		st.norm = n
		st.key = n.fingerprint()
	}

	t := asTrack(w)

	// Admission: the whole batch takes one slot. Intra-batch concurrency is
	// bounded by the experiments worker pool, exactly like one heavy request.
	if s.queued.Add(1) > s.queueLimit {
		s.queued.Add(-1)
		s.rejectedBusy.Add(1)
		s.writeError(w, errf(http.StatusServiceUnavailable, "server is at capacity (queue full)"))
		return
	}
	endQueue := t.stage(stageQueue)
	select {
	case s.gate <- struct{}{}:
	case <-r.Context().Done():
		endQueue()
		s.queued.Add(-1)
		s.writeError(w, errf(http.StatusServiceUnavailable, "request cancelled while queued"))
		return
	}
	endQueue()
	s.queued.Add(-1)
	s.admitted.Add(1)
	defer func() { <-s.gate }()

	// Response store: items whose exact bytes are already on disk are done
	// before any simulation runs.
	if s.cfg.Store != nil {
		endDisk := t.stage(stageDisk)
		for i := range items {
			st := &items[i]
			if st.done {
				continue
			}
			if data, ok, err := s.cfg.Store.Get(st.key); err == nil && ok {
				s.respDiskHits.Add(1)
				st.finish(http.StatusOK, "disk", data)
			}
		}
		endDisk()
	}

	var pending []int
	for i := range items {
		if !items[i].done {
			pending = append(pending, i)
		}
	}
	endSim := t.stage(stageSimulate)
	// Per-item failures land in the item, so a task only fails by panicking;
	// that panic propagates exactly as it would from POST /v1/simulate.
	_, err := experiments.Run(context.Background(), experiments.Workers(), len(pending),
		func(_ context.Context, j int) (struct{}, error) {
			s.answerItem(&items[pending[j]])
			return struct{}{}, nil
		})
	endSim()
	if err != nil {
		panic(err)
	}

	out := BatchResponse{SchemaVersion: SchemaVersion, Items: make([]BatchItem, len(items))}
	for i := range items {
		out.Items[i] = items[i].item
	}
	endEncode := t.stage(stageEncode)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&out)
	endEncode()
}

// answerItem resolves one item through the single-request path: simulate,
// encode, and publish the bytes to the response store.
func (s *Server) answerItem(st *batchItemState) {
	resp, err := simulate(st.norm)
	if err != nil {
		if apiErr, ok := err.(*Error); ok {
			st.errItem(s, apiErr)
		} else {
			st.errItem(s, errf(http.StatusInternalServerError, "simulation failed: %v", err))
		}
		return
	}
	data, err := EncodeResponse(resp)
	if err != nil {
		st.errItem(s, errf(http.StatusInternalServerError, "encode: %v", err))
		return
	}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(st.key, data); err == nil {
			s.respDiskWrites.Add(1)
		}
	}
	st.finish(http.StatusOK, "miss", data)
}
