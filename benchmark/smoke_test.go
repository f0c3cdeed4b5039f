package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs all five workloads, untraced and traced, at the
// -smoke size: every output check must pass (in the traced pass they include
// regions_mismatch = 0 and the facade = regions + own time identity), every
// end-to-end metric must be positive, every per-layer metric present, and the
// whole thing must stay short enough to live in the ordinary test run.
func TestSmokeEveryWorkload(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: w.name, seed: 7, instance: defaultInstance, seconds: 0.3, trace: trace, smoke: true,
				W: loadWidth(runtime.NumCPU()), traceDir: t.TempDir(),
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w.name, trace, d.Name, m.Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, m.Value)
				}
			}
			// The last line printed is the driver's contract.
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: result line keys = %v", w.name, last)
			}
			var metrics map[string]map[string]any
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil || len(metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line carries %d metrics, want %d (%v)", w.name, trace, len(metrics), len(defs), err)
			}
		}
	}
	// About 5 s on the 2-vCPU reference box (a minute under -race); a wall
	// clock limit here would only fail on a busy machine.
	t.Logf("smoke run of all workloads, both passes: %v", time.Since(start))
}

// TestOversubscriptionRefused: a workload that would run more threads than
// the process may use is an error, not a slow measurement.
func TestOversubscriptionRefused(t *testing.T) {
	_, err := run(config{workload: "p1000_newpar", seed: 1, seconds: 0.1, smoke: true, W: runtime.NumCPU() + 1})
	if err == nil || !strings.Contains(err.Error(), "threads") {
		t.Fatalf("err = %v, want a refusal to oversubscribe", err)
	}
}
