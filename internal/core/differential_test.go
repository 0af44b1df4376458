package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/obs"
	"mesa/internal/sim"
)

// TestObservabilityDifferential runs every kernel through the controller
// twice — once plain, once with a trace recorder attached — and requires
// the observed run to be indistinguishable from the plain one: identical
// final memory, identical architectural registers, and identical timing
// (cycles, iterations, counters). Both runs must also match the functional
// interpreter, and the trace itself must be a well-formed Chrome
// trace-event stream with CPU, controller, and accelerator tracks.
func TestObservabilityDifferential(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prog, loopStart := k.MustProgram()

			// Functional reference.
			refMem := k.NewMemory(42)
			refMachine := sim.New(prog, refMem)
			if _, err := refMachine.Run(20_000_000); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			type outcome struct {
				mem     *mem.Memory
				machine *sim.Machine
				report  *Report
			}
			runOnce := func(rec *obs.Recorder) outcome {
				opts := DefaultOptions(accel.M128())
				opts.Recorder = rec
				if k.Parallel {
					opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
				}
				ctl := NewController(opts)
				m := k.NewMemory(42)
				hier := mem.MustHierarchy(mem.DefaultHierarchy())
				report, machine, err := ctl.Run(prog, m, hier, 20_000_000)
				if err != nil {
					t.Fatalf("controller run: %v", err)
				}
				return outcome{mem: m, machine: machine, report: report}
			}

			plain := runOnce(nil)
			rec := obs.NewRecorder()
			traced := runOnce(rec)

			// Architectural state: both runs must match the interpreter and
			// therefore each other.
			for _, o := range []struct {
				name string
				outcome
			}{{"plain", plain}, {"traced", traced}} {
				if !refMem.Equal(o.mem) {
					t.Fatalf("%s run memory diverged from reference at %#x",
						o.name, refMem.Diff(o.mem, 8))
				}
				if err := k.Verify(o.mem, 42); err != nil {
					t.Fatalf("%s run: %v", o.name, err)
				}
				for r := range refMachine.Regs {
					if o.machine.Regs[r] != refMachine.Regs[r] {
						t.Errorf("%s run: x/f%d = %#x, ref %#x",
							o.name, r, o.machine.Regs[r], refMachine.Regs[r])
					}
				}
			}

			// Timing: attaching the recorder must not change a single number.
			if got, want := traced.report.CPURetired, plain.report.CPURetired; got != want {
				t.Errorf("traced CPURetired = %d, plain %d", got, want)
			}
			if got, want := traced.report.AccelIterations, plain.report.AccelIterations; got != want {
				t.Errorf("traced AccelIterations = %d, plain %d", got, want)
			}
			if len(traced.report.Regions) != len(plain.report.Regions) {
				t.Fatalf("traced regions = %d, plain %d",
					len(traced.report.Regions), len(plain.report.Regions))
			}
			for i := range plain.report.Regions {
				p, q := plain.report.Regions[i], traced.report.Regions[i]
				if p.TotalCycles() != q.TotalCycles() || p.FinalII != q.FinalII || p.Bound != q.Bound {
					t.Errorf("region %d: traced %.3f cyc II %.3f (%s), plain %.3f cyc II %.3f (%s)",
						i, q.TotalCycles(), q.FinalII, q.Bound, p.TotalCycles(), p.FinalII, p.Bound)
				}
				if !reflect.DeepEqual(p.Counters, q.Counters) {
					t.Errorf("region %d: counters differ under tracing", i)
				}

				// The attribution report is a pure function of the counters:
				// it must exist, agree between plain and traced runs down to
				// the serialized bytes, carry all four candidate bounds in
				// canonical order with the region's Bound starred as
				// limiting, and report per-PE utilization.
				if p.Attrib == nil || q.Attrib == nil {
					t.Fatalf("region %d: missing attribution report (plain %v, traced %v)",
						i, p.Attrib != nil, q.Attrib != nil)
				}
				attribJSON := func(a *accel.Attribution) string {
					var buf bytes.Buffer
					if err := a.WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					return buf.String()
				}
				if pj, qj := attribJSON(p.Attrib), attribJSON(q.Attrib); pj != qj {
					t.Errorf("region %d: attribution differs under tracing:\nplain:  %s\ntraced: %s", i, pj, qj)
				}
				wantBounds := []string{"dependence", "memports", "noc", "timeshare"}
				if len(p.Attrib.Bounds) != len(wantBounds) {
					t.Fatalf("region %d: %d candidate bounds, want %d", i, len(p.Attrib.Bounds), len(wantBounds))
				}
				for j, name := range wantBounds {
					if p.Attrib.Bounds[j].Name != name {
						t.Errorf("region %d: bound[%d] = %q, want %q", i, j, p.Attrib.Bounds[j].Name, name)
					}
					if p.Attrib.Bounds[j].Limiting != (name == p.Attrib.Chosen) {
						t.Errorf("region %d: bound %q limiting flag inconsistent with chosen %q",
							i, name, p.Attrib.Chosen)
					}
				}
				if p.Bound != "serial" && p.Attrib.Chosen != p.Bound {
					t.Errorf("region %d: attribution chose %q, region bound %q", i, p.Attrib.Chosen, p.Bound)
				}
				if len(p.Attrib.PEs) == 0 {
					t.Errorf("region %d: attribution has no per-PE utilization", i)
				}
			}

			// The metrics report is a pure function of the run: two
			// snapshots of the same report must serialize identically.
			snap := func(r *Report) string {
				reg := obs.NewRegistry()
				r.AddMetrics(reg)
				var buf bytes.Buffer
				if err := reg.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			if a, b := snap(traced.report), snap(traced.report); a != b {
				t.Error("metrics report is not deterministic across snapshots")
			}

			// Trace stream: valid JSON with all three tracks populated.
			if len(traced.report.Regions) == 0 {
				return // kernel ran on the CPU only; no accel track expected
			}
			var buf bytes.Buffer
			if err := rec.WriteTrace(&buf); err != nil {
				t.Fatalf("WriteTrace: %v", err)
			}
			var doc struct {
				TraceEvents []struct {
					PID int32  `json:"pid"`
					Ph  string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			tracks := map[int32]int{}
			for _, ev := range doc.TraceEvents {
				if ev.Ph != "M" {
					tracks[ev.PID]++
				}
			}
			for _, pid := range []int32{obs.PIDCPU, obs.PIDController, obs.PIDAccel} {
				if tracks[pid] == 0 {
					t.Errorf("trace has no events on pid %d (tracks: %v)", pid, tracks)
				}
			}
		})
	}
}
