package parallel

import (
	"math"
	"strings"
	"testing"
	"time"

	"phylo/internal/obs"
)

// TestStatsImbalanceEdgeCases pins the degenerate inputs of the imbalance
// metrics: no workers recorded and a single-worker pool must report exactly
// 1.0 (perfect balance) rather than dividing by zero, and a region measured
// at zero seconds must fold into the registry as zero, not NaN.
func TestStatsImbalanceEdgeCases(t *testing.T) {
	t.Run("zero workers", func(t *testing.T) {
		var s Stats
		if got := s.WorkerImbalance(); got != 1 {
			t.Errorf("WorkerImbalance() on empty stats = %v, want 1", got)
		}
		if got := s.Imbalance(0); got != 1 {
			t.Errorf("Imbalance(0) = %v, want 1", got)
		}
		if got := s.Imbalance(4); got != 1 {
			t.Errorf("Imbalance(4) on empty stats = %v, want 1", got)
		}
	})
	t.Run("zero elapsed time", func(t *testing.T) {
		var s Stats
		// A region whose workers all measured exactly zero seconds (possible
		// on a coarse clock) is priced by its ops alone, and the registry
		// records zero busy and zero idle seconds for it.
		ctxs := regionOf([]float64{10, 20})
		s.record(RegionNewview, ctxs)
		if got := s.WorkerImbalance(); got != 2.0/1.5 {
			t.Errorf("WorkerImbalance() = %v, want %v", got, 2.0/1.5)
		}
		reg := obs.NewRegistry()
		NewMetricsCollector(reg, "pool", "fused4", 2, nil).ObserveRegion(RegionNewview, time.Now(), 0, ctxs)
		for _, smp := range reg.Snapshot() {
			if (smp.Name == "plk_worker_busy_seconds_total" || smp.Name == "plk_worker_idle_seconds_total") && smp.Value != 0 {
				t.Errorf("%s%v = %v after a zero-second region, want 0", smp.Name, smp.Labels, smp.Value)
			}
		}
	})
	t.Run("single worker", func(t *testing.T) {
		seq := NewSequential()
		seq.Run(RegionNewview, func(w int, ctx *WorkerCtx) { ctx.Ops += 128 })
		s := seq.Stats()
		if got := s.WorkerImbalance(); got != 1 {
			t.Errorf("single-worker WorkerImbalance() = %v, want 1", got)
		}
		if got := s.Imbalance(1); got != 1 {
			t.Errorf("single-worker Imbalance(1) = %v, want 1", got)
		}
	})
}

// TestMetricsCollectorFoldsRegions runs regions on every realisation with a
// collector attached and checks the registry totals match the WorkerCtx
// scratch the closures wrote, and that idle time is charged against the time
// a worker was actually present: the whole region for goroutines, its own
// turn for virtual workers.
func TestMetricsCollectorFoldsRegions(t *testing.T) {
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sim, err := NewSim(2)
	if err != nil {
		t.Fatal(err)
	}
	burn := make([]float64, 2*16) // padded per-worker sinks
	for name, exec := range map[string]*Pool{
		"sequential": NewSequential(),
		"pool":       pool,
		"sim":        sim,
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := obs.NewTracer(64)
			exec.SetObserver(NewMetricsCollector(reg, name, "fused4", exec.Threads(), tr))
			exec.Run(RegionNewview, func(w int, ctx *WorkerCtx) {
				burn[w*16] += spinOps(200000) // equal work on every worker
				ctx.Ops += 100
				ctx.Patterns += 32
				ctx.SpanTipTip += 2
				ctx.Scalings++
			})
			exec.Run(RegionEvaluate, func(w int, ctx *WorkerCtx) { ctx.Ops += 10 })
			exec.SetObserver(nil)
			exec.Run(RegionOther, func(w int, ctx *WorkerCtx) {}) // detached: not counted

			want := map[string]float64{
				"plk_regions_total|kind=newview|exec=" + name:  1,
				"plk_regions_total|kind=evaluate|exec=" + name: 1,
				"plk_regions_total|kind=other|exec=" + name:    0,
				"plk_kernel_patterns_total|backend=fused4":     32 * float64(exec.Threads()),
				"plk_kernel_spans_total|case=tip-tip|backend=fused4": 2 *
					float64(exec.Threads()),
				"plk_scaling_events_total|backend=fused4": float64(exec.Threads()),
			}
			got := map[string]float64{}
			busy, idle, wall := 0.0, 0.0, 0.0
			for _, s := range reg.Snapshot() {
				key := s.Name
				for _, l := range s.Labels {
					key += "|" + l.Key + "=" + l.Value
				}
				got[key] = s.Value
				switch s.Name {
				case "plk_worker_busy_seconds_total":
					busy += s.Value
				case "plk_worker_idle_seconds_total":
					idle += s.Value
				case "plk_region_seconds_sum":
					wall += s.Value
				}
			}
			for key, w := range want {
				if got[key] != w {
					t.Errorf("%s = %v, want %v", key, got[key], w)
				}
			}
			if busy <= 0 {
				t.Fatalf("busy seconds = %v, want > 0", busy)
			}
			if name == "pool" {
				// Every goroutine is present for the whole region.
				if present := float64(exec.Threads()) * wall; math.Abs(busy+idle-present) > 1e-9 {
					t.Errorf("busy %v + idle %v = %v, want threads x wall = %v", busy, idle, busy+idle, present)
				}
			} else if idle > 0.05*busy {
				// A virtual worker is not idle while a sibling takes its turn.
				t.Errorf("idle %v against busy %v on balanced virtual workers, want idle << busy", idle, busy)
			}
			// Trace: one span per worker per region.
			if tr.Len() != 2*exec.Threads() {
				t.Errorf("trace events = %d, want %d", tr.Len(), 2*exec.Threads())
			}
			var b strings.Builder
			if err := reg.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			for _, fam := range []string{"plk_region_seconds", "plk_worker_busy_seconds_total", "plk_worker_ops_total"} {
				if !strings.Contains(b.String(), fam) {
					t.Errorf("exposition missing family %s", fam)
				}
			}
		})
	}
}

// TestObserveRegionAllocFree pins the flush path itself: folding a region
// into the registry must not allocate (it runs inside the executor's region
// critical section, metrics always-on).
func TestObserveRegionAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewMetricsCollector(reg, "pool", "fused4", 4, nil)
	ctxs := make([]WorkerCtx, 4)
	for w := range ctxs {
		ctxs[w].Worker = w
		ctxs[w].Ops = 100
		ctxs[w].Seconds = 0.01
		ctxs[w].Patterns = 8
	}
	start := time.Now()
	if n := testing.AllocsPerRun(500, func() {
		c.ObserveRegion(RegionNewview, start, 0.01, ctxs)
	}); n != 0 {
		t.Fatalf("ObserveRegion allocates %v allocs/op, want 0", n)
	}
}
