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

// handleSimulateBatch answers many simulation requests in one round trip
// through the single-request path: one decode and one admission slot for the
// batch, every item normalized and looked up in the response store first,
// then the rest answered concurrently on the experiments worker pool — so
// every item body is byte-identical to what POST /v1/simulate would have
// returned for that request, cold or warm. The simulation memo is
// single-flight, so duplicate items simulate once.
func (s *Server) handleSimulateBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.batchRequests.Add(1)
	var breq BatchRequest
	if e := s.decode(w, r, maxBatchBodyBytes, &breq); e != nil {
		s.writeError(w, e)
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

	// An item is answered once its Status is set; norms and keys carry the
	// rest to the fan-out.
	items := make([]BatchItem, len(breq.Requests))
	norms := make([]*normalized, len(items))
	keys := make([]string, len(items))
	for i := range breq.Requests {
		n, e := s.normalize(&breq.Requests[i])
		if e != nil {
			items[i] = BatchItem{Status: e.Status, Body: s.errorBody(e)}
			continue
		}
		norms[i], keys[i] = n, n.fingerprint()
	}

	t := asTrack(w)
	release, e := s.admit(r.Context(), t)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer release()

	// Every lookup happens before any item simulates, so a duplicate item
	// never replays the bytes its twin just stored: Cache and resp_disk_hits
	// do not depend on scheduling.
	if s.cfg.Store != nil {
		endDisk := t.stage(stageDisk)
		for i := range items {
			if items[i].Status == 0 {
				items[i], _ = s.lookup(keys[i])
			}
		}
		endDisk()
	}

	var pending []int
	for i := range items {
		if items[i].Status == 0 {
			pending = append(pending, i)
		}
	}
	endSim := t.stage(stageSimulate)
	// Per-item failures land in the item, so a task only fails by panicking;
	// that panic propagates exactly as it would from POST /v1/simulate.
	_, err := experiments.Run(context.Background(), experiments.Workers(), len(pending),
		func(_ context.Context, j int) (struct{}, error) {
			i := pending[j]
			items[i] = s.answer(nil, norms[i], keys[i])
			return struct{}{}, nil
		})
	endSim()
	if err != nil {
		panic(err)
	}

	endEncode := t.stage(stageEncode)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&BatchResponse{SchemaVersion: SchemaVersion, Items: items})
	endEncode()
}
