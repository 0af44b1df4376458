// Command mesad is the MESA simulation service: a long-running HTTP/JSON
// server that accepts a named kernel (or raw RV32IMF program words), an
// accelerator backend, and a placement strategy, and returns the
// accelerated-loop result plus the bottleneck-attribution report.
//
// Usage:
//
//	mesad                           # serve on :8177
//	mesad -addr 127.0.0.1:9000      # explicit listen address
//	mesad -parallel 8               # admit at most 8 concurrent simulations
//	mesad -cache-size 1024          # bound the in-memory result LRU
//	mesad -cache-dir /var/mesa      # persist response bodies across restarts
//	mesad -mapper congestion        # default placement strategy
//	mesad -log-level debug          # structured JSON request logs (off|debug|info|warn|error)
//	mesad -debug-addr 127.0.0.1:0   # serve net/http/pprof on a side listener
//	mesad -flight 128               # retain the 128 slowest request traces
//	mesad -smoke                    # self-test: serve, load-generate, scrape /metrics, exit
//
// Endpoints:
//
//	POST /v1/simulate   {"kernel":"nn","backend":"M-128","mapper":"greedy"}
//	                    or {"program":{"base":4096,"words":[...]}}
//	POST /v1/simulate/batch  {"requests":[...]} — up to 64 requests answered
//	                    in one round trip, simulated concurrently on the
//	                    worker pool; each item body matches /v1/simulate
//	GET  /v1/kernels    list the built-in kernels
//	GET  /metrics       every counter surface (server, latency histograms,
//	                    pool, sim cache) as JSON; Accept: text/plain selects
//	                    the Prometheus text exposition
//	GET  /healthz       liveness JSON: uptime, drain state, in-flight, queue
//	GET  /debug/requests            the N slowest request span trees
//	GET  /debug/requests/{id}/trace one request as Chrome trace JSON
//
// Every response carries X-Request-ID (client-propagated or generated), and
// each request emits one structured log line with per-stage timings.
//
// SIGINT/SIGTERM drain gracefully: in-flight simulations finish, new
// requests are refused with 503.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/mapping"
	"mesa/internal/obs"
	"mesa/internal/server"
)

// options collects the parsed command line.
type options struct {
	addr       string
	parallel   int
	cacheSize  int
	cacheDir   string
	mapper     string
	logLevel   string
	debugAddr  string
	flight     int
	smoke      bool
	smokeTrace string
}

// newLogger builds the request logger: JSON lines to w at the given level,
// or nil (logging disabled) for "off".
func newLogger(w io.Writer, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("invalid -log-level %q (want off, debug, info, warn, or error)", level)
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lv})), nil
}

func main() {
	// os.Exit skips defers and the listener/teardown must run on every
	// path, so the exit code is decided inside realMain.
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("mesad", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o options
	fs.StringVar(&o.addr, "addr", ":8177", "listen address")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS); also sizes the sweep worker pool")
	fs.IntVar(&o.cacheSize, "cache-size", experiments.DefaultSimMemoCapacity,
		"bound on the in-memory simulation-result LRU (0 = unbounded)")
	fs.StringVar(&o.cacheDir, "cache-dir", "",
		"content-addressed on-disk store of response bodies; warm responses survive restarts (empty = memory only)")
	fs.StringVar(&o.mapper, "mapper", mapping.Default().Name(),
		"default placement strategy ("+strings.Join(mapping.Names(), ", ")+")")
	fs.StringVar(&o.logLevel, "log-level", "info",
		"structured request-log level: off, debug, info, warn, or error")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"serve net/http/pprof on this side address (empty = disabled)")
	fs.IntVar(&o.flight, "flight", 64,
		"retain the N slowest request traces at /debug/requests")
	fs.BoolVar(&o.smoke, "smoke", false,
		"self-test: serve on a loopback port, run the load generator, scrape /metrics, exit")
	fs.StringVar(&o.smokeTrace, "smoke-trace", "",
		"with -smoke: write one flight-recorder trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "mesad: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if _, err := mapping.ByName(o.mapper); err != nil {
		fmt.Fprintln(errw, "mesad:", err)
		return 2
	}
	if o.parallel < 0 {
		fmt.Fprintf(errw, "mesad: invalid -parallel %d\n", o.parallel)
		return 2
	}
	logger, err := newLogger(errw, o.logLevel)
	if err != nil {
		fmt.Fprintln(errw, "mesad:", err)
		return 2
	}
	experiments.SetWorkers(o.parallel)
	experiments.SetSimMemoCapacity(o.cacheSize)

	var store *experiments.DiskStore
	if o.cacheDir != "" {
		var err error
		store, err = experiments.OpenDiskStore(o.cacheDir)
		if err != nil {
			fmt.Fprintln(errw, "mesad:", err)
			return 1
		}
	}

	srv := server.New(server.Config{
		DefaultMapper: o.mapper,
		Admission:     o.parallel,
		Store:         store,
		Logger:        logger,
		FlightSize:    o.flight,
	})

	// Optional pprof side listener: net/http/pprof registers on the default
	// mux, which the API listener never serves, so profiling stays off the
	// service port.
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			fmt.Fprintln(errw, "mesad:", err)
			return 1
		}
		defer dln.Close()
		fmt.Fprintf(out, "mesad: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, http.DefaultServeMux)
	}

	addr := o.addr
	if o.smoke {
		addr = "127.0.0.1:0" // never fight over a port in CI
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(errw, "mesad:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	if o.smoke {
		return runSmoke(srv, httpSrv, ln, o.smokeTrace, out, errw)
	}

	// Serve until a signal, then drain: in-flight requests finish, new ones
	// are refused with 503.
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "mesad: serving on %s (mapper %s, cache %d entries", ln.Addr(), o.mapper, o.cacheSize)
	if o.cacheDir != "" {
		fmt.Fprintf(out, ", disk store %s", o.cacheDir)
	}
	fmt.Fprintln(out, ")")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(errw, "mesad:", err)
			return 1
		}
	case s := <-sig:
		fmt.Fprintf(out, "mesad: %v, draining\n", s)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(errw, "mesad:", err)
			return 1
		}
	}
	return 0
}

// runSmoke is the -smoke self-test: serve on a loopback port, run the load
// generator twice (cold then warm — warm must be all cache hits), scrape
// /metrics in both JSON and Prometheus form (the latter validated with the
// strict exposition parser), check /healthz and the flight recorder, and
// shut down gracefully. A small kernel subset keeps the smoke brief; the
// full matrix, every kernel under every registered strategy, runs in the
// server package's tests.
func runSmoke(srv *server.Server, httpSrv *http.Server, ln net.Listener, tracePath string, out, errw io.Writer) int {
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "mesad: smoke serving on %s\n", base)

	client := &http.Client{Timeout: 120 * time.Second}
	opts := server.LoadOptions{
		Kernels: []string{"nn", "kmeans", "hotspot"},
		Clients: 4,
	}
	for _, label := range []string{"cold", "warm"} {
		stats, err := server.LoadGen(client, base, srv, opts)
		if err != nil {
			fmt.Fprintf(errw, "mesad: smoke %s pass: %v\n", label, err)
			return 1
		}
		fmt.Fprintf(out, "mesad: smoke %s pass: %d requests, %d mismatches\n",
			label, stats.Requests, stats.Mismatches)
	}

	// Batch endpoint: mixed valid/invalid items resolve individually, and
	// every valid item body is byte-identical to the single-request body the
	// load passes above already verified and warmed.
	batchBody := `{"requests":[{"kernel":"nn"},{"kernel":"kmeans","mapper":"congestion"},{"kernel":"no-such-kernel"}]}`
	bres, err := client.Post(base+"/v1/simulate/batch", "application/json", strings.NewReader(batchBody))
	if err != nil {
		fmt.Fprintln(errw, "mesad: smoke batch:", err)
		return 1
	}
	var batch server.BatchResponse
	berr := json.NewDecoder(bres.Body).Decode(&batch)
	bres.Body.Close()
	if berr != nil || bres.StatusCode != http.StatusOK || len(batch.Items) != 3 {
		fmt.Fprintf(errw, "mesad: smoke batch: status %d err %v items %d\n",
			bres.StatusCode, berr, len(batch.Items))
		return 1
	}
	for i, want := range []int{http.StatusOK, http.StatusOK, http.StatusNotFound} {
		if batch.Items[i].Status != want {
			fmt.Fprintf(errw, "mesad: smoke batch item %d: status %d, want %d (body: %s)\n",
				i, batch.Items[i].Status, want, batch.Items[i].Body)
			return 1
		}
	}
	for i, single := range []string{`{"kernel":"nn"}`, `{"kernel":"kmeans","mapper":"congestion"}`} {
		sres, err := client.Post(base+"/v1/simulate", "application/json", strings.NewReader(single))
		if err != nil {
			fmt.Fprintln(errw, "mesad: smoke batch single:", err)
			return 1
		}
		sbody, err := io.ReadAll(sres.Body)
		sres.Body.Close()
		if err != nil || sres.StatusCode != http.StatusOK {
			fmt.Fprintf(errw, "mesad: smoke batch single %d: status %d err %v\n", i, sres.StatusCode, err)
			return 1
		}
		if got := append(append([]byte(nil), batch.Items[i].Body...), '\n'); !bytes.Equal(got, sbody) {
			fmt.Fprintf(errw, "mesad: smoke batch item %d body differs from /v1/simulate\n", i)
			return 1
		}
	}
	fmt.Fprintf(out, "mesad: smoke batch ok (%d items)\n", len(batch.Items))

	metrics, err := client.Get(base + "/metrics")
	if err != nil {
		fmt.Fprintln(errw, "mesad: smoke /metrics:", err)
		return 1
	}
	body, err := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if err != nil || metrics.StatusCode != http.StatusOK {
		fmt.Fprintf(errw, "mesad: smoke /metrics: status %d err %v\n", metrics.StatusCode, err)
		return 1
	}
	for _, want := range []string{"sim_cache_hits", "admitted", "experiments.pool", "request_seconds_p99"} {
		if !strings.Contains(string(body), want) {
			fmt.Fprintf(errw, "mesad: smoke /metrics missing %q:\n%s\n", want, body)
			return 1
		}
	}
	fmt.Fprintf(out, "mesad: smoke /metrics ok (%d bytes)\n", len(body))

	// Prometheus exposition: content-negotiated, and every line must satisfy
	// the strict parser (histogram monotonicity included).
	promReq, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	promReq.Header.Set("Accept", "text/plain")
	promResp, err := client.Do(promReq)
	if err != nil {
		fmt.Fprintln(errw, "mesad: smoke prometheus /metrics:", err)
		return 1
	}
	promBody, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil || promResp.StatusCode != http.StatusOK {
		fmt.Fprintf(errw, "mesad: smoke prometheus /metrics: status %d err %v\n", promResp.StatusCode, err)
		return 1
	}
	if ct := promResp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		fmt.Fprintf(errw, "mesad: smoke prometheus /metrics content-type %q\n", ct)
		return 1
	}
	fams, err := obs.ParsePrometheus(promBody)
	if err != nil {
		fmt.Fprintf(errw, "mesad: smoke prometheus exposition malformed: %v\n", err)
		return 1
	}
	reqHist, ok := fams["mesad_request_seconds"]
	if !ok || reqHist.Type != "histogram" {
		fmt.Fprintln(errw, "mesad: smoke prometheus missing mesad_request_seconds histogram")
		return 1
	}
	if c, ok := reqHist.Sample("mesad_request_seconds_count"); !ok || c.Value <= 0 {
		fmt.Fprintln(errw, "mesad: smoke prometheus mesad_request_seconds_count is zero")
		return 1
	}
	fmt.Fprintf(out, "mesad: smoke prometheus ok (%d families)\n", len(fams))

	// Health: a serving process reports ok with its capacity numbers.
	var health struct {
		OK             bool `json:"ok"`
		AdmissionWidth int  `json:"admission_width"`
	}
	hres, err := client.Get(base + "/healthz")
	if err != nil {
		fmt.Fprintln(errw, "mesad: smoke /healthz:", err)
		return 1
	}
	herr := json.NewDecoder(hres.Body).Decode(&health)
	hres.Body.Close()
	if herr != nil || hres.StatusCode != http.StatusOK || !health.OK || health.AdmissionWidth < 1 {
		fmt.Fprintf(errw, "mesad: smoke /healthz: status %d err %v body %+v\n", hres.StatusCode, herr, health)
		return 1
	}

	// Flight recorder: the load passes must have retained slow requests, and
	// their traces must be valid Chrome trace JSON.
	var flights []struct {
		ID        string `json:"id"`
		TracePath string `json:"trace_path"`
	}
	fres, err := client.Get(base + "/debug/requests")
	if err != nil {
		fmt.Fprintln(errw, "mesad: smoke /debug/requests:", err)
		return 1
	}
	ferr := json.NewDecoder(fres.Body).Decode(&flights)
	fres.Body.Close()
	if ferr != nil || fres.StatusCode != http.StatusOK || len(flights) == 0 {
		fmt.Fprintf(errw, "mesad: smoke /debug/requests: status %d err %v entries %d\n",
			fres.StatusCode, ferr, len(flights))
		return 1
	}
	tres, err := client.Get(base + flights[0].TracePath)
	if err != nil {
		fmt.Fprintln(errw, "mesad: smoke trace fetch:", err)
		return 1
	}
	traceBody, err := io.ReadAll(tres.Body)
	tres.Body.Close()
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err != nil || tres.StatusCode != http.StatusOK ||
		json.Unmarshal(traceBody, &trace) != nil || len(trace.TraceEvents) == 0 {
		fmt.Fprintf(errw, "mesad: smoke trace for %s: status %d err %v\n", flights[0].ID, tres.StatusCode, err)
		return 1
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, traceBody, 0o644); err != nil {
			fmt.Fprintln(errw, "mesad: smoke trace write:", err)
			return 1
		}
		fmt.Fprintf(out, "mesad: smoke trace for request %s written to %s\n", flights[0].ID, tracePath)
	}
	fmt.Fprintf(out, "mesad: smoke flight recorder ok (%d retained)\n", len(flights))

	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(errw, "mesad:", err)
		return 1
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(errw, "mesad:", err)
		return 1
	}
	fmt.Fprintln(out, "mesad: smoke ok")
	return 0
}
