package bench

import (
	"context"
	"strings"
	"testing"
)

func checkReport() *MicrobenchReport {
	return &MicrobenchReport{
		Dataset: "d20_20000",
		Timings: []KernelTiming{
			{Threads: 1, EvaluateNsOp: 1000, NewviewNsOp: 4000},
			{Threads: 4, EvaluateNsOp: 400, NewviewNsOp: 1500},
		},
		TipCase: []TipCaseTiming{
			{Threads: 1, SpecializedNsOp: 2000, GenericNsOp: 5000, Speedup: 2.5},
		},
		BackendCase: []BackendTiming{
			{Threads: 1, GenericNsOp: 34000, FusedNsOp: 16000, Speedup: 2.125},
		},
		Bootstrap: []BootstrapTiming{
			{Threads: 1, Replicates: 32, BatchedNsPerRep: 30000, IndependentNsPerRep: 1000000,
				BatchedRepsPerSec: 33333, IndependentRepsPerSec: 1000, Speedup: 33.3},
		},
	}
}

// TestCompareReportsGate demonstrates the CI bench gate: a report meeting
// all three floors passes, each violated floor yields exactly one message,
// sections a report does not carry are skipped, and absolute ns/op — which
// only mean something against the same box's parent run, benchmark/'s job —
// are not judged at all.
func TestCompareReportsGate(t *testing.T) {
	healthy := checkReport()
	healthy.Steal = []StealMicrobench{{Threads: 4, Cores: 8, MigratedFraction: 0.12}}
	if v := CheckReport(healthy); len(v) != 0 {
		t.Fatalf("a report meeting every floor must pass, got %v", v)
	}

	sick := checkReport()
	sick.BackendCase[0].Speedup = 1.4
	sick.Bootstrap[0].Speedup = 1.5
	sick.Steal = []StealMicrobench{{Threads: 4, Cores: 8, MigratedFraction: 0.62}}
	v := CheckReport(sick)
	if len(v) != 3 {
		t.Fatalf("three violated floors must yield three messages, got %v", v)
	}
	for i, want := range []string{"backend @ 1 thread", "bootstrap @ 1 thread", "steal @ 4 threads"} {
		if !strings.Contains(v[i], want) {
			t.Errorf("message %d = %q, want it to name %q", i, v[i], want)
		}
	}

	// A report with no floor-bearing section (an old artifact, or a run of
	// the kernel timings alone) has nothing to violate.
	if v := CheckReport(&MicrobenchReport{Dataset: "timings-only", Timings: checkReport().Timings}); len(v) != 0 {
		t.Errorf("missing sections must be skipped, got %v", v)
	}

	// Ten times slower kernels with every ratio intact: not this gate's call.
	slow := checkReport()
	for i := range slow.Timings {
		slow.Timings[i].EvaluateNsOp *= 10
		slow.Timings[i].NewviewNsOp *= 10
	}
	slow.TipCase[0].SpecializedNsOp *= 10
	slow.BackendCase[0].GenericNsOp *= 10
	slow.BackendCase[0].FusedNsOp *= 10
	if v := CheckReport(slow); len(v) != 0 {
		t.Errorf("absolute ns/op must not be judged, got %v", v)
	}
}

// TestCompareReportsBackendColumn covers the kernel-backend floor: a fused
// backend that loses its 2x edge over the generic oracle at one thread
// trips it, exactly 2x does not, and neither do other thread counts or a
// report that measured only one backend.
func TestCompareReportsBackendColumn(t *testing.T) {
	eroded := checkReport()
	eroded.BackendCase[0].FusedNsOp = eroded.BackendCase[0].GenericNsOp / 1.4
	eroded.BackendCase[0].Speedup = 1.4
	v := CheckReport(eroded)
	if len(v) != 1 || !strings.Contains(v[0], "backend @ 1 thread") || !strings.Contains(v[0], "below the 2.0x floor") {
		t.Errorf("eroded 1.4x speedup must trip the floor once: %v", v)
	}

	// At the floor exactly passes; the floor is a minimum, not a target band.
	atFloor := checkReport()
	atFloor.BackendCase[0].FusedNsOp = atFloor.BackendCase[0].GenericNsOp / 2
	atFloor.BackendCase[0].Speedup = 2.0
	if v := CheckReport(atFloor); len(v) != 0 {
		t.Errorf("exactly 2.0x must pass the floor, got %v", v)
	}

	// The floor only applies at one thread (barrier effects make
	// cross-backend ratios at higher thread counts a scheduling property,
	// not a kernel property).
	mt := checkReport()
	mt.BackendCase = append(mt.BackendCase, BackendTiming{Threads: 4, GenericNsOp: 9000, FusedNsOp: 8000, Speedup: 1.125})
	if v := CheckReport(mt); len(v) != 0 {
		t.Errorf("sub-floor speedup at 4 threads must not trip the 1-thread floor, got %v", v)
	}

	// One backend unmeasured: no ratio to hold.
	half := checkReport()
	half.BackendCase[0] = BackendTiming{Threads: 1, FusedNsOp: 16000}
	if v := CheckReport(half); len(v) != 0 {
		t.Errorf("a backend row without both timings must be skipped, got %v", v)
	}
}

// TestCompareReportsBootstrapColumn covers the batched-bootstrap floor: a
// batched path that loses its 2x edge over R independent sessions at one
// thread trips it; other thread counts and half-measured rows do not.
func TestCompareReportsBootstrapColumn(t *testing.T) {
	eroded := checkReport()
	eroded.Bootstrap[0].BatchedNsPerRep = eroded.Bootstrap[0].IndependentNsPerRep / 1.5
	eroded.Bootstrap[0].Speedup = 1.5
	v := CheckReport(eroded)
	if len(v) != 1 || !strings.Contains(v[0], "bootstrap @ 1 thread") || !strings.Contains(v[0], "below the 2.0x floor") {
		t.Errorf("eroded 1.5x bootstrap speedup must trip the floor once: %v", v)
	}

	// The floor only applies at one thread.
	mt := checkReport()
	mt.Bootstrap = append(mt.Bootstrap, BootstrapTiming{Threads: 4, Replicates: 32,
		BatchedNsPerRep: 9000, IndependentNsPerRep: 10000, Speedup: 1.11})
	if v := CheckReport(mt); len(v) != 0 {
		t.Errorf("sub-floor bootstrap speedup at 4 threads must not trip the 1-thread floor, got %v", v)
	}

	// Independent control unmeasured: no ratio to hold.
	half := checkReport()
	half.Bootstrap[0] = BootstrapTiming{Threads: 1, Replicates: 32, BatchedNsPerRep: 30000}
	if v := CheckReport(half); len(v) != 0 {
		t.Errorf("a bootstrap row without both modes must be skipped, got %v", v)
	}
}

// TestCompareReportsFlagsStealPathology covers the stealing ceiling: >50% of
// patterns migrating at a genuinely parallel thread count is a mispriced
// static pack and must fail, while the same fraction on an oversubscribed
// host (workers time-sharing cores) is a scheduling artifact and must pass.
func TestCompareReportsFlagsStealPathology(t *testing.T) {
	healthy := checkReport()
	healthy.Steal = []StealMicrobench{
		{Threads: 4, Cores: 8, MigratedFraction: 0.12, StealCount: 40, StolenPatterns: 4000, ProcessedPatterns: 33000},
	}
	if v := CheckReport(healthy); len(v) != 0 {
		t.Fatalf("modest migration must pass, got %v", v)
	}

	sick := checkReport()
	sick.Steal = []StealMicrobench{
		{Threads: 4, Cores: 8, MigratedFraction: 0.62, StealCount: 900, StolenPatterns: 20000, ProcessedPatterns: 33000},
	}
	v := CheckReport(sick)
	if len(v) != 1 {
		t.Fatalf("want exactly one steal pathology, got %v", v)
	}
	if !strings.Contains(v[0], "steal @ 4 threads") || !strings.Contains(v[0], "mispriced") {
		t.Errorf("pathology message %q should name the thread count and the diagnosis", v[0])
	}

	// Same migration with 8 workers on 1 core: oversubscription, not a
	// mispriced pack — whichever worker the OS runs first legitimately
	// swallows the deques of workers that have not started yet.
	oversub := checkReport()
	oversub.Steal = []StealMicrobench{
		{Threads: 8, Cores: 1, MigratedFraction: 0.85, StealCount: 5000, StolenPatterns: 50000, ProcessedPatterns: 60000},
	}
	if v := CheckReport(oversub); len(v) != 0 {
		t.Errorf("oversubscribed migration must be skipped, got %v", v)
	}

	// Exactly at the ceiling passes; just above fails.
	edge := checkReport()
	edge.Steal = []StealMicrobench{{Threads: 2, Cores: 2, MigratedFraction: 0.5}}
	if v := CheckReport(edge); len(v) != 0 {
		t.Errorf("50%% migration at the 50%% ceiling must pass, got %v", v)
	}
	edge.Steal[0].MigratedFraction = 0.51
	if v := CheckReport(edge); len(v) != 1 {
		t.Errorf("51%% migration must fail, got %v", v)
	}
}

// TestTipCaseSpeedupRecorded guards the acceptance criterion: the microbench
// report must carry tip-case entries with a computed speedup, and at one
// thread — where the kernel is arithmetic-bound and the measured margin is
// wide (~3.5x locally) — the specialized path must clear the 1.25x floor.
func TestTipCaseSpeedupRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("microbenchmark run in -short mode")
	}
	rep, err := microbench(context.Background(), []int{1}, 0.01, 42, nil, secTipCase|secBackend)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TipCase) != 1 {
		t.Fatalf("want one tip-case timing, got %d", len(rep.TipCase))
	}
	tc := rep.TipCase[0]
	if tc.SpecializedNsOp <= 0 || tc.GenericNsOp <= 0 || tc.Speedup <= 0 {
		t.Fatalf("tip-case timing not populated: %+v", tc)
	}
	if tc.Speedup < 1.25 {
		t.Errorf("tip-heavy newview speedup %.2fx below the 1.25x acceptance floor", tc.Speedup)
	}
	if rep.TipDataset == "" {
		t.Error("tip dataset description missing")
	}
	// The backend column rides in the same report: both backends measured,
	// the active session backend recorded, and the fused speedup at one
	// thread clearing the CheckReport floor (the acceptance criterion).
	if rep.Backend == "" {
		t.Error("active kernel backend missing from report")
	}
	if len(rep.BackendCase) != 1 {
		t.Fatalf("want one backend timing, got %d", len(rep.BackendCase))
	}
	bt := rep.BackendCase[0]
	if bt.GenericNsOp <= 0 || bt.FusedNsOp <= 0 || bt.Speedup <= 0 {
		t.Fatalf("backend timing not populated: %+v", bt)
	}
	if bt.Speedup < backendSpeedupFloor {
		t.Errorf("fused newview speedup %.2fx below the %.1fx acceptance floor", bt.Speedup, backendSpeedupFloor)
	}
	if rep.BackendDataset == "" {
		t.Error("backend dataset description missing")
	}
}
