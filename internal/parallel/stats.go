package parallel

import (
	"fmt"
	"strings"
)

// Stats accumulates the two quantities that determine parallel performance in
// the paper's analysis — how many synchronization events (regions/barriers)
// were issued and how much bounded-by-the-slowest work each contained — plus
// per-kind breakdowns and cumulative per-worker totals (the direct view of
// how well the schedule's assignment balanced the run). Two parallel
// accountings are kept: predicted weighted operation counts (what the
// analytic cost model says the work was worth) and measured wall-clock
// seconds (what the work actually cost on this host, monotonic-clock timed
// per worker per region by the executors). The gap between the two is what
// the op model mispriced — observability, not control: nothing reschedules
// on it, and stealing absorbs it inside each region. All updates happen
// on the master side of the barrier, so no locking is needed. Workers that a
// region's assignment leaves empty contribute exactly zero ops and
// (near-)zero time, so idle workers are visible in (not hidden from) the
// imbalance metrics.
type Stats struct {
	Regions      int64     // total parallel regions (= barriers for T > 1)
	TotalOps     float64   // sum over regions of summed per-worker ops
	CriticalOps  float64   // sum over regions of max per-worker ops (the critical path)
	WorkerOps    []float64 // cumulative ops per worker id across all regions
	KindRegions  [numRegionKinds]int64
	KindCritical [numRegionKinds]float64

	// Measured wall-clock accounting, mirroring the op counters: per-worker
	// in-region seconds, their critical path (sum over regions of the slowest
	// worker's time), and per-kind critical time.
	TotalTime    float64   // sum over regions of summed per-worker seconds
	CriticalTime float64   // sum over regions of max per-worker seconds
	WorkerTime   []float64 // cumulative measured seconds per worker id
	KindTime     [numRegionKinds]float64

	// Work-stealing accounting (zero unless the session's chunk runtime,
	// internal/steal, has thieving on): how many steal operations each
	// worker performed and how many patterns it executed away from their
	// scheduled owner (counted once per execution, so chunks relayed through
	// thief chains are not double-counted and StolenPatterns/processed stays
	// a true fraction). High StolenPatterns relative to the patterns
	// processed means the static assignment is systematically mispriced
	// (every region redistributes the same work), not merely noisy — the
	// signal the bench gate flags.
	StealCount     float64   // total steal operations across all regions
	StolenPatterns float64   // total patterns that migrated via steals
	WorkerSteals   []float64 // cumulative steal operations per worker id
	WorkerStolen   []float64 // cumulative stolen patterns per worker id
}

// record folds one finished region's per-worker scratch into the counters.
// Worker times are taken net of in-region synchronization waits (see
// WorkerCtx.Idle).
func (s *Stats) record(kind Region, ctxs []WorkerCtx) {
	if kind < 0 || kind >= numRegionKinds {
		kind = RegionOther
	}
	if n := len(ctxs); len(s.WorkerOps) < n {
		s.WorkerOps = grown(s.WorkerOps, n)
		s.WorkerTime = grown(s.WorkerTime, n)
		s.WorkerSteals = grown(s.WorkerSteals, n)
		s.WorkerStolen = grown(s.WorkerStolen, n)
	}
	// Ops and times are summed per region first and added to the totals
	// once, which fixes the rounding of TotalOps and TotalTime.
	maxOps, sumOps, maxT, sumT := 0.0, 0.0, 0.0, 0.0
	for w := range ctxs {
		c := &ctxs[w]
		s.WorkerOps[w] += c.Ops
		sumOps += c.Ops
		if c.Ops > maxOps {
			maxOps = c.Ops
		}
		t := c.workSeconds()
		s.WorkerTime[w] += t
		sumT += t
		if t > maxT {
			maxT = t
		}
		s.WorkerSteals[w] += c.Steals
		s.StealCount += c.Steals
		s.WorkerStolen[w] += c.StolenPatterns
		s.StolenPatterns += c.StolenPatterns
	}
	s.Regions++
	s.TotalOps += sumOps
	s.CriticalOps += maxOps
	s.KindRegions[kind]++
	s.KindCritical[kind] += maxOps
	s.TotalTime += sumT
	s.CriticalTime += maxT
	s.KindTime[kind] += maxT
}

// grown returns v extended with zeroes to length n.
func grown(v []float64, n int) []float64 {
	g := make([]float64, n)
	copy(g, v)
	return g
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

// maxAvgRatio returns max/avg of a per-worker vector, 1 when degenerate.
func maxAvgRatio(v []float64) float64 {
	if len(v) == 0 {
		return 1
	}
	max, sum := 0.0, 0.0
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(v)))
}

// WorkerImbalance is the max/avg ratio of the cumulative per-worker op
// totals: how unevenly the whole run's work landed on workers, independent of
// region boundaries. 1.0 means every worker did the same total work.
func (s *Stats) WorkerImbalance() float64 { return maxAvgRatio(s.WorkerOps) }

// TimeImbalance is the max/avg ratio of the cumulative per-worker measured
// wall-clock seconds — the observed analogue of WorkerImbalance. Where
// WorkerImbalance prices the run with the analytic op model, TimeImbalance
// reports what the host actually did; a gap between the two means the model
// mispriced the patterns (tip tables, cache effects, a noisy machine) — the
// residual that stealing absorbs.
func (s *Stats) TimeImbalance() float64 { return maxAvgRatio(s.WorkerTime) }

// String renders a compact per-kind table.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "regions=%d totalOps=%.3g criticalOps=%.3g workerImbalance=%.3f timeImbalance=%.3f\n",
		s.Regions, s.TotalOps, s.CriticalOps, s.WorkerImbalance(), s.TimeImbalance())
	if s.StealCount > 0 {
		fmt.Fprintf(&b, "  steals=%.0f stolenPatterns=%.0f\n", s.StealCount, s.StolenPatterns)
	}
	for k := Region(0); k < numRegionKinds; k++ {
		if s.KindRegions[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-11s regions=%-10d criticalOps=%.3g criticalTime=%.3gs\n",
			k.String(), s.KindRegions[k], s.KindCritical[k], s.KindTime[k])
	}
	return b.String()
}
