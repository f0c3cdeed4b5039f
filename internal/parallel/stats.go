package parallel

import (
	"fmt"
	"strings"
)

// Stats is the trace the platform model prices (see Platform.EvalSeconds):
// how many synchronization events (regions/barriers) a session issued and how
// much bounded-by-the-slowest work each contained, in the analytic op model's
// units, plus per-kind breakdowns and cumulative per-worker totals (the direct
// view of how well the schedule's assignment balanced the run). What the host
// measured — busy and idle seconds — is not kept here: a RegionObserver
// folds it into the metrics registry (MetricsCollector), its one record. All
// updates happen on the master side of the barrier, so no locking is needed.
// Workers that a region's assignment leaves empty contribute exactly zero ops,
// so idle workers are visible in (not hidden from) the imbalance metrics.
type Stats struct {
	Regions      int64     // total parallel regions (= barriers for T > 1)
	TotalOps     float64   // sum over regions of summed per-worker ops
	CriticalOps  float64   // sum over regions of max per-worker ops (the critical path)
	WorkerOps    []float64 // cumulative ops per worker id across all regions
	KindRegions  [numRegionKinds]int64
	KindCritical [numRegionKinds]float64
}

// record folds one finished region's per-worker op counts into the trace.
func (s *Stats) record(kind Region, ctxs []WorkerCtx) {
	if kind < 0 || kind >= numRegionKinds {
		kind = RegionOther
	}
	if n := len(ctxs); len(s.WorkerOps) < n {
		g := make([]float64, n)
		copy(g, s.WorkerOps)
		s.WorkerOps = g
	}
	// Ops are summed per region first and added to the total once, which
	// fixes the rounding of TotalOps.
	maxOps, sumOps := 0.0, 0.0
	for w := range ctxs {
		ops := ctxs[w].Ops
		s.WorkerOps[w] += ops
		sumOps += ops
		maxOps = max(maxOps, ops)
	}
	s.Regions++
	s.TotalOps += sumOps
	s.CriticalOps += maxOps
	s.KindRegions[kind]++
	s.KindCritical[kind] += maxOps
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// Imbalance is the ratio of critical-path work to perfectly balanced work
// (TotalOps / T); 1.0 means perfect balance. Meaningful for T > 1.
func (s *Stats) Imbalance(threads int) float64 {
	if s.TotalOps == 0 || threads <= 0 {
		return 1
	}
	return s.CriticalOps / (s.TotalOps / float64(threads))
}

// WorkerImbalance is the max/avg ratio of the cumulative per-worker op
// totals: how unevenly the whole run's work landed on workers, independent of
// region boundaries. 1.0 means every worker did the same total work.
func (s *Stats) WorkerImbalance() float64 {
	max, sum := 0.0, 0.0
	for _, x := range s.WorkerOps {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(s.WorkerOps)))
}

// String renders a compact per-kind table.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "regions=%d totalOps=%.3g criticalOps=%.3g workerImbalance=%.3f\n",
		s.Regions, s.TotalOps, s.CriticalOps, s.WorkerImbalance())
	for k := Region(0); k < numRegionKinds; k++ {
		if s.KindRegions[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-11s regions=%-10d criticalOps=%.3g\n",
			k.String(), s.KindRegions[k], s.KindCritical[k])
	}
	return b.String()
}
