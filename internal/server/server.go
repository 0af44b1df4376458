// Package server implements mesad, the MESA simulation service: a
// long-running HTTP/JSON API that accepts a named kernel (or raw RV32IMF
// program words), a backend/CPU configuration, and a placement strategy, and
// returns the accelerated-loop result plus the bottleneck-attribution
// report.
//
// Layering:
//
//   - Request coalescing and warm results come from the internal/experiments
//     single-flight simulation cache (bounded, memory-only LRU):
//     concurrent identical requests run one simulation; repeated requests
//     hit warm entries.
//   - One request path serves POST /v1/simulate and every item of POST
//     /v1/simulate/batch: decode (method, drain, size limit, unknown fields,
//     trailing data) → normalize → admit → lookup (response store) → answer
//     (simulate, encode, store write), with errorBody the one way any
//     failure becomes the Error document. A single request runs it once; a
//     batch decodes and admits once, looks every item up, then fans answer
//     out over the items. Named kernels and raw programs share one response
//     builder, respond.
//   - Admission control bounds concurrent simulations to the
//     internal/experiments worker width, with a bounded wait queue: load
//     beyond the queue is rejected with 503 rather than piling up.
//   - Responses are pure functions of the request (no timestamps, no cache
//     markers in the body), so a response is byte-identical whether computed
//     cold, served from the warm in-process cache, or replayed from the
//     on-disk response store — the property the load-generator gate
//     enforces. Cache observability lives in the X-Mesad-Cache header and
//     /metrics, never in the body.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/experiments"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/obs"
)

// SchemaVersion stamps every response (and the response-store keys), so a
// schema change never replays stale on-disk bytes.
const SchemaVersion = 1

// MaxProgramWords bounds a raw-program request. Kernel hot loops are tens of
// instructions; 4096 words is far beyond anything the detector accepts and
// small enough that a request can never balloon a simulation arbitrarily.
const MaxProgramWords = 4096

// maxBodyBytes bounds the request body (MaxProgramWords as JSON plus slack).
const maxBodyBytes = 1 << 20

// Request is one simulation request. Exactly one of Kernel and Program must
// be set.
type Request struct {
	// Kernel names a built-in workload (GET /v1/kernels lists them).
	Kernel string `json:"kernel,omitempty"`
	// Program is a raw RV32IMF program: it runs over a zeroed memory image
	// with no output verification.
	Program *RawProgram `json:"program,omitempty"`
	// Backend selects the accelerator configuration: M-64, M-128 (default),
	// or M-512.
	Backend string `json:"backend,omitempty"`
	// Mapper selects the placement strategy (default: the server's default
	// strategy, normally "greedy").
	Mapper string `json:"mapper,omitempty"`
	// Cores sets the CPU-baseline core count (default 1). Values above 1
	// time parallel kernels on the multicore baseline.
	Cores int `json:"cores,omitempty"`
}

// RawProgram is an unassembled instruction stream: 32-bit RV32IMF words laid
// out contiguously from Base.
type RawProgram struct {
	Base  uint32   `json:"base"`
	Words []uint32 `json:"words"`
}

// CPUSummary is the CPU-baseline timing of a request.
type CPUSummary struct {
	Cores  int     `json:"cores"`
	Cycles float64 `json:"cycles"`
}

// LoopSummary is the accelerated-loop result (the LoopResult/RegionReport
// projection a client needs; the full decomposition is in Attribution).
type LoopSummary struct {
	Iterations         uint64  `json:"iterations"`
	AccelCycles        float64 `json:"accel_cycles"`
	OverheadCycles     float64 `json:"overhead_cycles"`
	CPUProfilingCycles float64 `json:"cpu_profiling_cycles"`
	TotalCycles        float64 `json:"total_cycles"`
	AvgIterCycles      float64 `json:"avg_iter_cycles"`
	II                 float64 `json:"ii"`
	Bound              string  `json:"bound"`
	Tiles              int     `json:"tiles"`
	Reconfigs          int     `json:"reconfigs"`
	ConfigWords        int     `json:"config_words"`
}

// Response is the simulation result. It is a pure function of the Request:
// byte-identical whether computed cold or served warm.
type Response struct {
	SchemaVersion int    `json:"schema_version"`
	Kernel        string `json:"kernel,omitempty"`
	Backend       string `json:"backend"`
	Mapper        string `json:"mapper"`
	Qualified     bool   `json:"qualified"`

	CPU     CPUSummary   `json:"cpu"`
	Loop    *LoopSummary `json:"loop,omitempty"`
	Speedup float64      `json:"speedup,omitempty"`

	Attribution *accel.Attribution `json:"attribution,omitempty"`
}

// Error is the JSON error body every non-2xx response carries.
type Error struct {
	Status int    `json:"status"`
	Msg    string `json:"error"`
}

func (e *Error) Error() string { return e.Msg }

func errf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Config tunes a Server.
type Config struct {
	// DefaultMapper is the strategy used when a request names none
	// ("" selects mapping.Default()).
	DefaultMapper string
	// Admission bounds concurrently running simulations (<1 selects
	// experiments.Workers()).
	Admission int
	// QueueDepth bounds requests waiting for admission (<1 selects
	// 4×Admission). Load beyond admitted+queued is rejected with 503.
	QueueDepth int
	// Store, when non-nil, caches encoded response bytes content-addressed
	// by the request fingerprint, so warm responses survive restarts.
	Store *experiments.DiskStore
	// Logger, when non-nil, receives one structured line per request
	// (simulate requests at Info, scrapes and debug reads at Debug).
	Logger *slog.Logger
	// FlightSize bounds the slow-request flight recorder: the N slowest
	// /v1/simulate span trees are retained for GET /debug/requests
	// (<1 selects 64).
	FlightSize int
}

// Server is the mesad HTTP service. Create with New, mount Handler, and call
// Drain before http.Server.Shutdown so in-flight requests finish while new
// ones are refused.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	gate       chan struct{}
	queueLimit int64
	queued     atomic.Int64
	draining   atomic.Bool

	requests         atomic.Uint64
	batchRequests    atomic.Uint64
	batchItems       atomic.Uint64
	admitted         atomic.Uint64
	rejectedBusy     atomic.Uint64
	rejectedDraining atomic.Uint64
	clientErrors     atomic.Uint64
	serverErrors     atomic.Uint64
	respDiskHits     atomic.Uint64
	respDiskWrites   atomic.Uint64
	panics           atomic.Uint64

	start   time.Time
	logger  *slog.Logger
	flight  *obs.FlightRecorder
	latency map[string]*obs.Histogram // "request" + stage names -> histogram
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Admission < 1 {
		cfg.Admission = experiments.Workers()
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4 * cfg.Admission
	}
	if cfg.FlightSize < 1 {
		cfg.FlightSize = 64
	}
	s := &Server{
		cfg:        cfg,
		gate:       make(chan struct{}, cfg.Admission),
		queueLimit: int64(cfg.QueueDepth),
		start:      time.Now(),
		logger:     cfg.Logger,
		flight:     obs.NewFlightRecorder(cfg.FlightSize),
		latency:    newLatencyHistograms(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/simulate/batch", s.handleSimulateBatch)
	s.mux.HandleFunc("/v1/kernels", s.handleKernels)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}/trace", s.handleDebugTrace)
	return s
}

// Handler returns the service's HTTP handler (panic-safe: a panicking
// request becomes a 500 JSON error, never a torn connection). Every request
// runs inside a track: root span, request id, latency histograms, and one
// structured log line — all without touching response bodies.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := s.startTrack(w, r)
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.writeError(t, errf(http.StatusInternalServerError, "internal error: %v", rec))
			}
			t.finish()
		}()
		s.mux.ServeHTTP(t, r)
	})
}

// Drain makes the server refuse new simulation requests with 503 while
// in-flight ones complete (call before http.Server.Shutdown).
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// errorBody renders e as the Error document that answers every failure —
// a single request's body and a batch item's alike — and counts it as a
// client or server error.
func (s *Server) errorBody(e *Error) []byte {
	if e.Status >= 500 {
		s.serverErrors.Add(1)
	} else {
		s.clientErrors.Add(1)
	}
	data, _ := json.Marshal(e)
	return append(data, '\n')
}

// writeError emits the uniform JSON error body.
func (s *Server) writeError(w http.ResponseWriter, e *Error) {
	writeItem(w, BatchItem{Status: e.Status, Body: s.errorBody(e)})
}

// writeItem writes one answer as the whole HTTP response: its status, its
// exact body bytes and, when it has one, its X-Mesad-Cache disposition.
func writeItem(w http.ResponseWriter, item BatchItem) {
	w.Header().Set("Content-Type", "application/json")
	if item.Cache != "" {
		asTrack(w).setCache(item.Cache)
		w.Header().Set("X-Mesad-Cache", item.Cache)
	}
	w.WriteHeader(item.Status)
	w.Write(item.Body)
}

// handleHealthz reports liveness plus the numbers an operator checks first:
// uptime, drain state, in-flight and queued simulations, and the configured
// capacity. A draining server answers 503 so load balancers stop routing to
// it while in-flight work completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	h := struct {
		OK             bool    `json:"ok"`
		UptimeSeconds  float64 `json:"uptime_seconds"`
		Draining       bool    `json:"draining"`
		Inflight       int     `json:"inflight"`
		Queued         int64   `json:"queued"`
		AdmissionWidth int     `json:"admission_width"`
		QueueDepth     int64   `json:"queue_depth"`
	}{
		OK:             !draining,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Draining:       draining,
		Inflight:       len(s.gate),
		Queued:         s.queued.Load(),
		AdmissionWidth: cap(s.gate),
		QueueDepth:     s.queueLimit,
	}
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, errf(http.StatusMethodNotAllowed, "use GET"))
		return
	}
	type kinfo struct {
		Name        string `json:"name"`
		Parallel    bool   `json:"parallel"`
		N           int    `json:"n"`
		Description string `json:"description"`
	}
	var out []kinfo
	for _, k := range kernels.All() {
		out = append(out, kinfo{Name: k.Name, Parallel: k.Parallel, N: k.N, Description: k.Description})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleMetrics serves every counter surface of the process — server
// admission/rejection/caching counters, wall-clock latency histograms, the
// experiments worker pool, and the simulation-result cache. The default
// rendering is the obs.Registry JSON report (unchanged); an Accept header
// asking for text/plain or OpenMetrics selects the Prometheus text
// exposition instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, errf(http.StatusMethodNotAllowed, "use GET"))
		return
	}
	reg := obs.NewRegistry()
	reg.Add("server",
		obs.Count("requests", s.requests.Load()),
		obs.Count("batch_requests", s.batchRequests.Load()),
		obs.Count("batch_items", s.batchItems.Load()),
		obs.Count("admitted", s.admitted.Load()),
		obs.Count("rejected_busy", s.rejectedBusy.Load()),
		obs.Count("rejected_draining", s.rejectedDraining.Load()),
		obs.Count("client_errors", s.clientErrors.Load()),
		obs.Count("server_errors", s.serverErrors.Load()),
		obs.Count("resp_disk_hits", s.respDiskHits.Load()),
		obs.Count("resp_disk_writes", s.respDiskWrites.Load()),
		obs.Count("panics", s.panics.Load()),
		obs.M("admission_width", float64(cap(s.gate))),
		obs.M("queue_depth", float64(s.queueLimit)),
	)
	reg.Add("experiments.pool", experiments.PoolMetrics()...)
	reg.Add("experiments.memo", experiments.SimMemoMetrics()...)
	reg.AddHistogram("server.latency",
		s.latency["request"], s.latency[stageQueue], s.latency[stageDisk],
		s.latency[stageSimulate], s.latency[stageEncode])
	reg.AddHistogram("experiments.timing", experiments.SimTimingHistograms()...)
	if wantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		reg.WritePrometheus(w, "mesad")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := reg.WriteJSON(w); err != nil {
		// Headers are gone; nothing more to do than drop the connection.
		return
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req Request
	if e := s.decode(w, r, maxBodyBytes, &req); e != nil {
		s.writeError(w, e)
		return
	}
	norm, e := s.normalize(&req)
	if e != nil {
		s.writeError(w, e)
		return
	}
	t := asTrack(w)
	t.setWorkload(req.Kernel, norm.backend.Name, norm.mapper.Name())
	release, e := s.admit(r.Context(), t)
	if e != nil {
		s.writeError(w, e)
		return
	}
	defer release()

	key := norm.fingerprint()
	if s.cfg.Store != nil {
		endDisk := t.stage(stageDisk)
		item, ok := s.lookup(key)
		endDisk()
		if ok {
			writeItem(w, item)
			return
		}
	}
	writeItem(w, s.answer(t, norm, key))
}

// decode reads a POST body into v: the method, drain, size-limit,
// unknown-field and trailing-data checks every simulation endpoint makes
// before it looks at the request. Whitespace (a trailing newline) may follow
// the JSON document; anything else is a 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, limit int64, v any) *Error {
	if r.Method != http.MethodPost {
		return errf(http.StatusMethodNotAllowed, "use POST")
	}
	if s.draining.Load() {
		s.rejectedDraining.Add(1)
		return errf(http.StatusServiceUnavailable, "server is shutting down")
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, "bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errf(http.StatusBadRequest, "bad request body: trailing data after the JSON document")
	}
	return nil
}

// admit waits for one admission slot and returns the func that frees it. At
// most Admission simulations run and at most QueueDepth wait; the
// experiments worker pool bounds intra-request fan-out, this gate bounds
// cross-request concurrency with the same width. A batch takes one slot.
func (s *Server) admit(ctx context.Context, t *track) (release func(), e *Error) {
	if s.queued.Add(1) > s.queueLimit {
		s.queued.Add(-1)
		s.rejectedBusy.Add(1)
		return nil, errf(http.StatusServiceUnavailable, "server is at capacity (queue full)")
	}
	endQueue := t.stage(stageQueue)
	select {
	case s.gate <- struct{}{}:
	case <-ctx.Done():
		e = errf(http.StatusServiceUnavailable, "request cancelled while queued")
	}
	endQueue()
	s.queued.Add(-1)
	if e != nil {
		return nil, e
	}
	s.admitted.Add(1)
	return func() { <-s.gate }, nil
}

// lookup replays the byte-exact response the store holds for key, so warm
// responses survive restarts. Callers check that a store is attached.
func (s *Server) lookup(key string) (BatchItem, bool) {
	data, ok, err := s.cfg.Store.Get(key)
	if err != nil || !ok {
		return BatchItem{}, false
	}
	s.respDiskHits.Add(1)
	return BatchItem{Status: http.StatusOK, Cache: "disk", Body: data}, true
}

// answer resolves a request the store could not: simulate, encode, and
// publish the bytes to the response store. It returns exactly what POST
// /v1/simulate sends — the response on success, the Error document
// otherwise. t times the simulate and encode stages (nil for batch items,
// which the batch times as a whole).
func (s *Server) answer(t *track, n *normalized, key string) BatchItem {
	endSim := t.stage(stageSimulate)
	resp, err := simulate(n)
	endSim()
	if err != nil {
		e := errf(http.StatusInternalServerError, "simulation failed: %v", err)
		return BatchItem{Status: e.Status, Body: s.errorBody(e)}
	}
	endEncode := t.stage(stageEncode)
	data, err := EncodeResponse(resp)
	endEncode()
	if err != nil {
		e := errf(http.StatusInternalServerError, "encode: %v", err)
		return BatchItem{Status: e.Status, Body: s.errorBody(e)}
	}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(key, data); err == nil {
			s.respDiskWrites.Add(1)
		}
	}
	return BatchItem{Status: http.StatusOK, Cache: "miss", Body: data}
}

// EncodeResponse serializes a Response exactly as the HTTP handler does
// (fixed field order, trailing newline): the byte-identity contract between
// server responses and direct library calls compares these encodings.
func EncodeResponse(resp *Response) ([]byte, error) {
	data, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// normalized is a validated request with every default resolved, so two
// spellings of the same request ("mapper":"" vs "mapper":"greedy") share one
// fingerprint and one cache entry.
type normalized struct {
	kernel  *kernels.Kernel // nil for raw programs
	prog    *isa.Program    // nil for kernels
	backend *accel.Config
	mapper  mapping.Strategy
	cores   int
}

// normalize validates a request and resolves defaults. Validation failures
// are 4xx API errors, never panics: everything client-controlled is checked
// here before any simulation state is touched.
func (s *Server) normalize(req *Request) (*normalized, *Error) {
	n := &normalized{cores: req.Cores}
	switch {
	case req.Kernel != "" && req.Program != nil:
		return nil, errf(http.StatusBadRequest, "set exactly one of kernel and program, not both")
	case req.Kernel == "" && req.Program == nil:
		return nil, errf(http.StatusBadRequest, "set one of kernel or program")
	case req.Kernel != "":
		k, err := kernels.ByName(req.Kernel)
		if err != nil {
			return nil, errf(http.StatusNotFound, "unknown kernel %q (GET /v1/kernels lists them)", req.Kernel)
		}
		n.kernel = k
	default:
		p := req.Program
		if len(p.Words) == 0 {
			return nil, errf(http.StatusBadRequest, "program has no words")
		}
		if len(p.Words) > MaxProgramWords {
			return nil, errf(http.StatusRequestEntityTooLarge,
				"program too large: %d words (limit %d)", len(p.Words), MaxProgramWords)
		}
		if p.Base%4 != 0 {
			return nil, errf(http.StatusBadRequest, "program base %#x is not word-aligned", p.Base)
		}
		base := p.Base
		if base == 0 {
			base = kernels.CodeBase
		}
		prog := &isa.Program{Base: base, Insts: make([]isa.Inst, 0, len(p.Words))}
		for i, word := range p.Words {
			in, err := isa.Decode(word)
			if err != nil {
				return nil, errf(http.StatusUnprocessableEntity,
					"word %d (%#08x) is not a valid RV32IMF instruction: %v", i, word, err)
			}
			in.Addr = base + uint32(4*i)
			prog.Insts = append(prog.Insts, in)
		}
		n.prog = prog
	}

	backend := req.Backend
	if backend == "" {
		backend = "M-128"
	}
	be, ok := accel.ByName(backend)
	if !ok {
		return nil, errf(http.StatusBadRequest, "unknown backend %q (want M-64, M-128, or M-512)", req.Backend)
	}
	n.backend = be

	name := req.Mapper
	if name == "" {
		name = s.cfg.DefaultMapper
	}
	if name == "" {
		name = mapping.Default().Name()
	}
	strat, err := mapping.ByName(name)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	n.mapper = strat

	if n.cores < 0 || n.cores > 64 {
		return nil, errf(http.StatusBadRequest, "cores %d out of range [0, 64]", n.cores)
	}
	// A core count reaches the response only through a parallel kernel's
	// multicore baseline: raw programs and serial kernels time one core, so
	// any count resolves to 1 and shares that request's fingerprint.
	if n.cores == 0 || n.kernel == nil || !n.kernel.Parallel {
		n.cores = 1
	}
	return n, nil
}

// fingerprint content-addresses the normalized request for the response
// store: schema version, workload identity, and the full resolved
// configuration.
func (n *normalized) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "mesad|v%d|seed%d|steps%d|", SchemaVersion, experiments.Seed, experiments.MaxSteps)
	if n.kernel != nil {
		fmt.Fprintf(h, "kernel|%s|%d|%t|", n.kernel.Name, n.kernel.N, n.kernel.Parallel)
	} else {
		fmt.Fprintf(h, "raw|base%d|", n.prog.Base)
		experiments.HashProgramWords(h, n.prog)
	}
	fmt.Fprintf(h, "|map%s|cores%d|", n.mapper.Name(), n.cores)
	n.backend.Fingerprint(h)
	return hex.EncodeToString(h.Sum(nil))
}

// Simulate is the direct library call the HTTP handler wraps: it validates
// and resolves the request exactly like the handler (returning the same
// typed *Error on invalid input) and returns the response the server would
// serve. The load-generator gate compares EncodeResponse(Simulate(req))
// against served bodies byte for byte.
func (s *Server) Simulate(req *Request) (*Response, error) {
	n, apiErr := s.normalize(req)
	if apiErr != nil {
		return nil, apiErr
	}
	return simulate(n)
}

// simulate runs a normalized request through the experiments layer (all
// simulation results are memoized and coalesced there).
func simulate(n *normalized) (*Response, error) {
	if n.kernel == nil {
		single, err := experiments.TimeProgramSingleCore(n.prog, cpu.DefaultBOOM())
		if err != nil {
			return nil, err
		}
		report, err := experiments.RunProgramMESA(n.prog, n.backend, n.mapper)
		if err != nil {
			return nil, err
		}
		var rr *core.RegionReport
		if len(report.Regions) > 0 {
			rr = report.Regions[0]
		}
		return respond(n, CPUSummary{Cores: 1, Cycles: single.Cycles}, rr, 0), nil
	}
	k := n.kernel
	single, err := experiments.TimeSingleCore(k, cpu.DefaultBOOM())
	if err != nil {
		return nil, err
	}
	baseline := single
	if n.cores > 1 {
		mc := cpu.DefaultMulticore()
		mc.Cores = n.cores
		baseline, err = experiments.TimeMulticore(k, mc)
		if err != nil {
			return nil, err
		}
	}
	cpuPerIter := single.Cycles / float64(k.N)
	run, err := experiments.RunMESA(k, n.backend, cpuPerIter, experiments.MESAOptions{Mapper: n.mapper})
	if err != nil {
		return nil, err
	}
	return respond(n, CPUSummary{Cores: baseline.Cores, Cycles: baseline.Cycles}, run.Region, run.CPUProfilingCycles), nil
}

// respond builds the Response for a CPU baseline and the offloaded region
// (nil when nothing qualified). profiling is the CPU cost of the iterations
// that ran before offload: a kernel charges them at its single-core cost per
// iteration, a raw program has no iteration count to charge them against.
func respond(n *normalized, baseline CPUSummary, rr *core.RegionReport, profiling float64) *Response {
	resp := &Response{
		SchemaVersion: SchemaVersion,
		Backend:       n.backend.Name,
		Mapper:        n.mapper.Name(),
		Qualified:     rr != nil,
		CPU:           baseline,
	}
	if n.kernel != nil {
		resp.Kernel = n.kernel.Name
	}
	if rr == nil {
		return resp
	}
	total := rr.AccelCycles + rr.OverheadCycles + profiling
	resp.Loop = &LoopSummary{
		Iterations:         rr.Iterations,
		AccelCycles:        rr.AccelCycles,
		OverheadCycles:     rr.OverheadCycles,
		CPUProfilingCycles: profiling,
		TotalCycles:        total,
		AvgIterCycles:      rr.FinalAvgIter,
		II:                 rr.FinalII,
		Bound:              rr.Bound,
		Tiles:              rr.Tiles,
		Reconfigs:          rr.Reconfigs,
		ConfigWords:        rr.ConfigWords,
	}
	resp.Attribution = rr.Attrib
	if total > 0 {
		resp.Speedup = baseline.Cycles / total
	}
	return resp
}
