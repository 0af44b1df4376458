package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/server"
)

// The serve-open traffic. No recorded mesad traffic exists, so this mix is
// a synthetic profile: the named requests come from the one client the
// repository has, server.LoadGen, and every other number is an assumption
// README.md gives the reasoning for.
const (
	serveRate       = 40 // arrivals per second (assumed)
	serveRawEvery   = 10 // one request in ten is a raw program (assumed)
	serveBatchEvery = 20 // one in twenty is a batch (assumed)
	serveBatchItems = 8  // the lane count mesabench -batch and the batched engine are measured at

	serveOnTime = 500 * time.Millisecond // goodput counts requests done this soon after they were due

	// maxGeneratorLag is the p99 lateness of the generator beyond which a
	// run is invalid: one mean gap between arrivals. Later than that, the
	// generator bunches arrivals and no longer offers the scheduled process.
	// Latency is timed from the due time, so lateness within the limit is
	// charged to the requests, not hidden. (On a shared 2-vCPU host the p99
	// ranged from 1 to 10 ms between runs of one commit.)
	maxGeneratorLag = time.Second / serveRate
)

// serveBackends are the accelerator configurations mesad accepts.
var serveBackends = []string{"M-64", "M-128", "M-512"}

// Request kinds of the serve-open mix.
const (
	kindNamed = "named"
	kindRaw   = "raw"
	kindBatch = "batch"
)

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // since the window's start
	kind string
	body []byte           // the request document sent
	reqs []server.Request // the single requests whose bodies the response must reproduce
	gen  *genkern.Generated
}

func (a *arrival) path() string {
	if a.kind == kindBatch {
		return "/v1/simulate/batch"
	}
	return "/v1/simulate"
}

// namedCombos is server.LoadGen's matrix — every kernel under every
// registered strategy — on each backend mesad accepts.
func namedCombos() []server.Request {
	var out []server.Request
	for _, b := range serveBackends {
		for _, k := range kernels.Names() {
			for _, m := range mapping.Names() {
				out = append(out, server.Request{Kernel: k, Backend: b, Mapper: m})
			}
		}
	}
	return out
}

// buildSchedule derives the measured window's schedule from the seed. It
// has serveRate arrivals per second at independent uniform times, sorted (a
// Poisson process conditioned on its count, so every seed offers the same
// load), with exactly one raw request in serveRawEvery and one batch in
// serveBatchEvery in a seeded order. Named requests and batch items walk
// the matrix round after round, each round in a seeded order, as LoadGen's
// Rounds option repeats it: every combination is requested equally often,
// and all of them are warm because the run's warm-up is LoadGen's cold
// pass. The i-th raw request is genkern program i: new to every mesad
// process, so always a miss, and the same cold work for every seed.
func buildSchedule(seed int64, seconds int) ([]arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	n := serveRate * seconds
	window := time.Duration(seconds) * time.Second
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	nRaw, nBatch := n/serveRawEvery, n/serveBatchEvery
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < nRaw:
			kinds[i] = kindRaw
		case i < nRaw+nBatch:
			kinds[i] = kindBatch
		default:
			kinds[i] = kindNamed
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	var round []server.Request
	named := func(k int) []server.Request {
		out := make([]server.Request, k)
		for i := range out {
			if len(round) == 0 {
				round = namedCombos()
				rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			}
			out[i], round = round[0], round[1:]
		}
		return out
	}
	nextRaw := int64(0)
	out := make([]arrival, n)
	for i := range out {
		a := arrival{due: dues[i], kind: kinds[i]}
		var err error
		switch a.kind {
		case kindNamed:
			a.reqs = named(1)
			a.body, err = json.Marshal(a.reqs[0])
		case kindBatch:
			a.reqs = named(serveBatchItems)
			a.body, err = json.Marshal(server.BatchRequest{Requests: a.reqs})
		case kindRaw:
			if a.gen, err = genkern.Generate(nextRaw, genkern.DefaultMix()); err != nil {
				return nil, err
			}
			nextRaw++
			words := make([]uint32, len(a.gen.Prog.Insts))
			for j, in := range a.gen.Prog.Insts {
				if words[j], err = isa.Encode(in); err != nil {
					return nil, fmt.Errorf("genkern seed %d: %w", a.gen.Seed, err)
				}
			}
			a.reqs = []server.Request{{Program: &server.RawProgram{Base: a.gen.Prog.Base, Words: words}}}
			a.body, err = json.Marshal(a.reqs[0])
		}
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// runServe measures open-loop traffic against a mesad subprocess. After an
// unmeasured warm-up — server.LoadGen's cold pass over the matrix on each
// backend, which checks every body itself — the schedule is sent from this
// process over rc.conns keep-alive connections, and every latency is timed
// from the request's due time, so a stalled server charges the wait to
// every request queued behind the stall. Every response body, batch items
// included, is compared byte for byte with the library call it stands for
// (server.EncodeResponse of server.(*Server).Simulate).
func runServe(rc *runCtx) (*outcome, error) {
	o := rc.newOutcome("request")
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mesadPath := filepath.Join(filepath.Dir(self), "mesad")
	arrivals, err := buildSchedule(rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	rc.sizes["rate_per_s"] = serveRate
	rc.sizes["arrivals"] = float64(len(arrivals))
	rc.sizes["raw_every"] = serveRawEvery
	rc.sizes["batch_every"] = serveBatchEvery
	rc.sizes["batch_items"] = serveBatchItems
	rc.sizes["named_combos"] = float64(len(namedCombos()))

	// Set-up is mesad's start: exec to a healthy /healthz. The last start
	// serves the run.
	var proc *mesadProc
	defer func() {
		if proc != nil {
			proc.stop()
		}
	}()
	o.setup, err = repeatSetup(func() (float64, error) {
		if proc != nil {
			if _, err := proc.stop(); err != nil {
				return 0, err
			}
		}
		p, secs, err := startMesad(mesadPath, rc.workers)
		proc = p
		return secs, err
	})
	if err != nil {
		return nil, err
	}

	tr := &http.Transport{Proxy: nil, MaxConnsPerHost: rc.conns, MaxIdleConnsPerHost: rc.conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	experiments.SetWorkers(rc.workers)
	ref := server.New(server.Config{Admission: rc.workers})
	for _, b := range serveBackends {
		stats, err := server.LoadGen(client, proc.base, ref, server.LoadOptions{Backend: b, Clients: rc.conns})
		if err != nil {
			o.attempted++
			o.fail("warm-up on %s after %d requests: %v", b, stats.Requests, err)
		}
	}

	// The bodies the window's responses must match, computed before it
	// (named requests are memo hits after the warm-up); then the reference
	// memo is dropped, so this process's collector has a small heap to
	// scan while it keeps the open-loop schedule.
	want, err := expectedBodies(rc, ref, arrivals)
	if err != nil {
		return nil, err
	}
	experiments.ResetSimMemo()
	runtime.GC()

	scrape := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{Proxy: nil}}
	before, err := scrapeMesad(scrape, proc)
	if err != nil {
		return nil, err
	}
	samples := drive(rc, client, proc.base, arrivals)
	after, err := scrapeMesad(scrape, proc)
	if err != nil {
		return nil, err
	}
	rss, err := proc.stop()
	if err != nil {
		return nil, err
	}

	// The window is measured: its latencies, its goodput over the time from
	// its start to its last response, and mesad's allocations between the
	// two scrapes.
	var lags, connWaits, traced, untraced []float64
	var last time.Duration
	respBytes := 0
	for i := range samples {
		a, s := &arrivals[i], &samples[i]
		lags = append(lags, s.lag.Seconds())
		connWaits = append(connWaits, s.connWait.Seconds())
		respBytes += len(s.body)
		last = max(last, s.done)
		o.attempted++
		if reason := checkResponse(a, s, want); reason != "" {
			o.fail("request %d (%s, due %v): %s", i, a.kind, a.due, reason)
			continue
		}
		lat := s.latency.Seconds()
		o.units = append(o.units, lat)
		if s.latency <= serveOnTime {
			o.good++
		}
		if s.traced {
			traced = append(traced, lat)
		} else {
			untraced = append(untraced, lat)
		}
	}
	o.lagP99 = percentile(lags, 0.99)
	if lag := o.lagP99; lag > maxGeneratorLag.Seconds() {
		o.refused = fmt.Sprintf("generator lag p99 %.2f ms exceeds %v: the host could not keep the schedule",
			1e3*lag, maxGeneratorLag)
	}
	o.window = last.Seconds()
	o.allocBytes = after["TotalAlloc"] - before["TotalAlloc"]
	o.peakRSS = rss

	if rc.traced {
		l := o.layers
		for name, key := range mesadGauges {
			l[name] = after[key]
		}
		for name, key := range mesadCounters {
			l[name] = after[key] - before[key]
		}
		l["runtime.heap_alloc_mb"] /= 1e6
		l["experiments.memo_hit_ratio"] = ratio(l["experiments.memo_hits"], l["experiments.memo_hits"]+l["experiments.memo_misses"])
		l["client.conn_wait_p99_s"] = percentile(connWaits, 0.99)
		l["client.resp_kb_mean"] = float64(respBytes) / 1e3 / float64(max(len(samples), 1))
		l["trace.overhead_frac"] = median(traced)/median(untraced) - 1
		if o.replay, err = servePoints(arrivals); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// mesadGauges and mesadCounters map layer metrics to the scrapeMesad keys
// they come from: gauges are read at the end of the window (mesad's latency
// histograms, so these cover the warm-up too), counters as the window's
// delta.
var (
	mesadGauges = map[string]string{
		"server.queue_p99_s":    "server.latency/queue_seconds_p99",
		"server.simulate_p50_s": "server.latency/simulate_seconds_p50",
		"server.simulate_p99_s": "server.latency/simulate_seconds_p99",
		"server.encode_p50_s":   "server.latency/encode_seconds_p50",
		"server.encode_p99_s":   "server.latency/encode_seconds_p99",
		"server.request_p99_s":  "server.latency/request_seconds_p99",
		"runtime.gc_cpu_frac":   "GCCPUFraction",
	}
	mesadCounters = map[string]string{
		"server.admitted":         "server/admitted",
		"server.rejected_busy":    "server/rejected_busy",
		"server.batch_items":      "server/batch_items",
		"experiments.memo_hits":   "experiments.memo/sim_cache_hits",
		"experiments.memo_misses": "experiments.memo/sim_cache_misses",
		"experiments.memo_wait_s": "experiments.timing/sim_hit_wait_seconds_sum",
		"experiments.sim_run_s":   "experiments.timing/sim_run_seconds_sum",
		"runtime.gc_cycles":       "NumGC",
		"runtime.heap_alloc_mb":   "TotalAlloc",
	}
)

// servePoints picks the replay inputs of a serve-open run: the first
// replayPrograms distinct named requests and the first replayPrograms/2 raw
// programs, in schedule order.
func servePoints(arrivals []arrival) ([]*point, error) {
	var pts []*point
	seen := map[server.Request]bool{}
	named, raw := 0, 0
	for i := range arrivals {
		a := &arrivals[i]
		switch {
		case a.kind == kindNamed && named < replayPrograms && !seen[a.reqs[0]]:
			r := a.reqs[0]
			seen[r] = true
			k, err := kernels.ByName(r.Kernel)
			if err != nil {
				return nil, err
			}
			p, err := kernelPoint(k, r.Backend, r.Mapper)
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
			named++
		case a.kind == kindRaw && raw < replayPrograms/2:
			pts = append(pts, rawPoint(a.gen, &a.reqs[0]))
			raw++
		}
	}
	return pts, nil
}

// sample is one request's outcome as the client saw it.
type sample struct {
	status   int
	body     []byte
	err      error
	lag      time.Duration // generator lateness: due until queued for a connection
	connWait time.Duration // queued until a connection took it
	latency  time.Duration // due until the whole response was read
	done     time.Duration // the response's completion, since the window's start
	traced   bool
}

// drive sends the schedule open loop through client: one generator
// goroutine releases each request at its due time into a queue that holds
// the whole schedule (so the generator never waits for a busy connection),
// and rc.conns senders, one per keep-alive connection, take requests in
// order. drive returns every request's sample once all responses are in.
func drive(rc *runCtx, client *http.Client, base string, arrivals []arrival) []sample {
	samples := make([]sample, len(arrivals))
	queue := make(chan int, len(arrivals))
	var spanMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < rc.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				a, s := &arrivals[i], &samples[i]
				due := start.Add(a.due)
				s.connWait = time.Since(due) - s.lag
				spanMu.Lock()
				sp := rc.unitSpanOn(i, a.kind, c)
				spanMu.Unlock()
				s.traced = sp != nil
				s.status, s.body, s.err = post(client, base+a.path(), a.body)
				s.latency = time.Since(due)
				s.done = time.Since(start)
				sp.SetAttr("status", s.status)
				sp.End()
			}
		}(c)
	}
	for i := range arrivals {
		due := start.Add(arrivals[i].due)
		time.Sleep(time.Until(due))
		samples[i].lag = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// requestKey identifies a single request by its JSON encoding.
func requestKey(r *server.Request) string {
	data, _ := json.Marshal(r) // a Request always encodes
	return string(data)
}

// expectedBodies computes, in this process, the body mesad must return for
// every distinct single request of the schedule: the server.LoadGen
// contract, EncodeResponse of the library's Simulate on ref.
func expectedBodies(rc *runCtx, ref *server.Server, arrivals []arrival) (map[string][]byte, error) {
	var reqs []server.Request
	seen := map[string]bool{}
	for i := range arrivals {
		for j := range arrivals[i].reqs {
			r := &arrivals[i].reqs[j]
			if k := requestKey(r); !seen[k] {
				seen[k] = true
				reqs = append(reqs, *r)
			}
		}
	}
	bodies, err := experiments.Run(context.Background(), rc.workers, len(reqs),
		func(_ context.Context, i int) ([]byte, error) {
			resp, err := ref.Simulate(&reqs[i])
			if err != nil {
				return nil, fmt.Errorf("library call %s: %w", requestKey(&reqs[i]), err)
			}
			return server.EncodeResponse(resp)
		})
	if err != nil {
		return nil, err
	}
	want := make(map[string][]byte, len(reqs))
	for i := range reqs {
		want[requestKey(&reqs[i])] = bodies[i]
	}
	return want, nil
}

// checkResponse returns why a response is wrong, or "" when it is the
// library's exact bytes (each batch item: the single-request body minus its
// trailing newline, which the batch encoding strips).
func checkResponse(a *arrival, s *sample, want map[string][]byte) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.status != http.StatusOK:
		return fmt.Sprintf("status %d: %.200s", s.status, s.body)
	case a.kind != kindBatch:
		if !bytes.Equal(s.body, want[requestKey(&a.reqs[0])]) {
			return "body differs from the library call"
		}
		return ""
	}
	var br server.BatchResponse
	if err := json.Unmarshal(s.body, &br); err != nil {
		return "batch body: " + err.Error()
	}
	if len(br.Items) != len(a.reqs) {
		return fmt.Sprintf("batch has %d items, sent %d", len(br.Items), len(a.reqs))
	}
	for j, it := range br.Items {
		if it.Status != http.StatusOK {
			return fmt.Sprintf("batch item %d: status %d", j, it.Status)
		}
		if !bytes.Equal(append(append([]byte(nil), it.Body...), '\n'), want[requestKey(&a.reqs[j])]) {
			return fmt.Sprintf("batch item %d differs from the library call", j)
		}
	}
	return ""
}

// mesadProc is a running mesad subprocess.
type mesadProc struct {
	cmd     *exec.Cmd
	base    string        // service URL
	debug   string        // pprof side-listener URL
	drained chan struct{} // closed once mesad's stdout reached EOF
	stopped bool
	rss     float64
	err     error
}

// startMesad starts mesad on loopback ports with stderr (its request log)
// discarded and returns it once /healthz answers, with the seconds that
// took from exec.
func startMesad(path string, workers int) (*mesadProc, float64, error) {
	cmd := exec.Command(path, "-parallel", strconv.Itoa(workers),
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &mesadProc{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan bool, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(stdout)
		serving := false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "mesad: pprof on "); ok {
				p.debug = strings.TrimSuffix(rest, "/debug/pprof/")
			}
			if rest, ok := strings.CutPrefix(line, "mesad: serving on "); ok && !serving {
				addr, _, _ := strings.Cut(rest, " ")
				p.base = "http://" + addr
				serving = true
				ready <- true
			}
		}
		if !serving {
			ready <- false
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case ok := <-ready:
		if !ok {
			p.stop()
			return nil, 0, errors.New("mesad exited before serving")
		}
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, 0, errors.New("mesad did not start serving within 60s")
	}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{Proxy: nil}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(p.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("mesad /healthz: status %d", resp.StatusCode)
		}
	}
	secs := time.Since(t0).Seconds()
	if err != nil || p.debug == "" {
		p.stop()
		return nil, 0, fmt.Errorf("mesad not ready: %v (pprof %q)", err, p.debug)
	}
	return p, secs, nil
}

// stop drains mesad with SIGTERM (killing it after 30s), waits for it, and
// returns its peak resident set in bytes. Repeated calls return the first
// call's result.
func (p *mesadProc) stop() (float64, error) {
	if p.stopped {
		return p.rss, p.err
	}
	p.stopped = true
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	p.err = p.cmd.Wait()
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rss = float64(ru.Maxrss) * 1024 // Linux reports kilobytes
	}
	// mesad installs its drain handler just after it starts serving, so a
	// set-up repetition stopped right away can die of the signal instead.
	if ws, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		p.err = nil
	}
	if p.err != nil {
		p.err = fmt.Errorf("mesad: %w", p.err)
	}
	return p.rss, p.err
}

// scrapeMesad reads mesad's /metrics report (keys "section/metric") and the
// Go runtime statistics its pprof heap endpoint prints (keys TotalAlloc,
// NumGC, GCCPUFraction).
func scrapeMesad(client *http.Client, p *mesadProc) (map[string]float64, error) {
	out := map[string]float64{}
	resp, err := client.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
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
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("mesad /metrics: %w", err)
	}
	for _, s := range doc.Sections {
		for _, m := range s.Metrics {
			out[s.Name+"/"+m.Name] = m.Value
		}
	}

	resp, err = client.Get(p.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		for _, key := range []string{"TotalAlloc", "NumGC", "GCCPUFraction"} {
			if v, ok := strings.CutPrefix(sc.Text(), "# "+key+" = "); ok {
				if out[key], err = strconv.ParseFloat(v, 64); err != nil {
					return nil, fmt.Errorf("mesad runtime statistic %s: %w", key, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, errors.New("mesad pprof heap profile carries no runtime statistics")
	}
	return out, nil
}
