// Package schedule computes pattern-to-worker assignments for the likelihood
// kernel. The global pattern space [0, Total) is the concatenation of the
// partitions' compressed patterns; a Schedule precomputes, per worker and per
// partition, the one contiguous [Lo, Hi) run of patterns that worker owns
// (possibly empty). Kernels iterate runs instead of hard-coding a
// distribution, which turns the paper's fixed design decision (cyclic
// distribution, Sec. IV) into a pluggable, benchmarkable axis:
//
//   - Cyclic: the paper's per-partition balance and the default. Worker w
//     owns as many patterns of every partition as the indices congruent to w
//     modulo the worker count would give it, as one contiguous run; the runs
//     tile the partition in worker order. Every partition is balanced by
//     pattern count on its own, so even narrow single-partition regions
//     (oldPAR) keep all workers busy.
//   - Block: each worker owns one contiguous slice of the whole pattern
//     space. The ablation the paper argues against: narrow regions land on
//     one or two workers, and mixed alignments give some workers only cheap
//     columns.
//   - Weighted: an LPT (longest-processing-time) bin-packing of per-partition
//     shares onto workers using per-pattern op costs, so mixed DNA/protein
//     datasets balance by cost rather than by count.
//   - Measured: the weighted pack under caller-supplied prices (Rebalance).
//     Nothing in the program reprices a schedule at run time — a dataset's
//     schedule is built once and never changes (DESIGN.md "Why the schedule
//     is immutable") — so no analysis option selects it.
//
// A worker's run of a partition is its share: internal/steal lists the
// shares and internal/core binds, runs and reduces each as one unit (one
// partial sum per share and lane), so a likelihood is a function of the
// schedule alone. Schedules feed the deterministic kernels, so schedule
// construction is a deterministic scope itself: equal inputs must yield
// equal assignments.
//
//plk:deterministic
package schedule

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Strategy selects a pattern-to-worker assignment policy.
type Strategy int

// The built-in strategies.
const (
	// Cyclic is the paper's per-partition distribution: each worker gets the
	// pattern count of its indices modulo the worker count, as one run.
	Cyclic Strategy = iota
	// Block gives each worker one contiguous slice of the global space.
	Block
	// Weighted LPT-bin-packs contiguous per-partition shares by op cost.
	Weighted
	// Measured is the weighted pack under caller-supplied prices: New builds
	// it exactly like Weighted, and it is the strategy a Rebalance result
	// carries. A pure function of its spans; not selectable by name.
	Measured
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Cyclic:
		return "cyclic"
	case Block:
		return "block"
	case Weighted:
		return "weighted"
	case Measured:
		return "measured"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Parse resolves a strategy name ("cyclic", "block", "weighted").
func Parse(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "cyclic", "cycle", "stride":
		return Cyclic, nil
	case "block", "contiguous":
		return Block, nil
	case "weighted", "lpt", "cost":
		return Weighted, nil
	default:
		return 0, fmt.Errorf("schedule: unknown strategy %q (want cyclic, block, or weighted)", name)
	}
}

// Span is one partition's extent in the global pattern space plus the
// weighted op cost of a single pattern in it (e.g. the newview cost: ~25x
// larger for 20-state protein than for 4-state DNA columns).
type Span struct {
	Lo, Hi int
	Cost   float64
}

// Len returns the pattern count of the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Run is a half-open global pattern index interval [Lo, Hi), empty when
// Hi <= Lo.
type Run struct {
	Lo, Hi int
}

// Len returns the pattern count of the run.
func (r Run) Len() int { return max(r.Hi-r.Lo, 0) }

// Schedule is a precomputed pattern-to-worker assignment: for every worker
// and every span (partition), one contiguous run. Together the runs of all
// workers partition every span exactly.
type Schedule struct {
	strategy Strategy
	threads  int
	total    int
	spans    []Span
	runs     [][]Run // [worker][span] -> the worker's run, empty for no share
}

// New builds a schedule for the given spans. Spans must be consecutive:
// span 0 starts at 0 and span i+1 starts where span i ends.
func New(strategy Strategy, threads int, spans []Span) (*Schedule, error) {
	if threads < 1 {
		return nil, fmt.Errorf("schedule: thread count %d must be positive", threads)
	}
	off := 0
	for i, sp := range spans {
		if sp.Lo != off || sp.Hi < sp.Lo {
			return nil, fmt.Errorf("schedule: span %d [%d,%d) does not continue at offset %d", i, sp.Lo, sp.Hi, off)
		}
		if sp.Cost < 0 {
			return nil, fmt.Errorf("schedule: span %d has negative cost %v", i, sp.Cost)
		}
		off = sp.Hi
	}
	s := &Schedule{
		strategy: strategy,
		threads:  threads,
		total:    off,
		spans:    append([]Span(nil), spans...),
		runs:     make([][]Run, threads),
	}
	for w := range s.runs {
		s.runs[w] = make([]Run, len(spans))
	}
	switch strategy {
	case Cyclic:
		s.buildCyclic()
	case Block:
		s.buildBlock()
	case Weighted, Measured:
		s.buildWeighted()
	default:
		return nil, fmt.Errorf("schedule: unknown strategy %v", strategy)
	}
	return s, nil
}

// Strategy returns the policy the schedule was built with.
func (s *Schedule) Strategy() Strategy { return s.strategy }

// Threads returns the worker count.
func (s *Schedule) Threads() int { return s.threads }

// Total returns the global pattern count.
func (s *Schedule) Total() int { return s.total }

// NumSpans returns the span (partition) count.
func (s *Schedule) NumSpans() int { return len(s.spans) }

// Span returns span sp (its global pattern extent and per-pattern cost).
func (s *Schedule) Span(sp int) Span { return s.spans[sp] }

// SpanRun returns worker w's run inside span sp (empty: no share).
func (s *Schedule) SpanRun(w, sp int) Run { return s.runs[w][sp] }

// MemoryBytes estimates the schedule's resident heap bytes: the span table
// plus every worker's per-span runs. Used by the dataset memory
// accounting that prices cache eviction in the serving layer.
func (s *Schedule) MemoryBytes() int64 {
	// Span{Lo, Hi int; Cost float64}, and one Run{Lo, Hi int} per worker and span.
	return int64(24*len(s.spans) + 16*s.threads*len(s.spans))
}

// Count returns how many patterns of span sp worker w owns.
func (s *Schedule) Count(w, sp int) int { return s.runs[w][sp].Len() }

// StaticOps returns the precomputed per-pattern op cost assigned to each
// worker: StaticOps()[w] = sum over spans of Count(w, span) * span cost.
// It is the assignment's a-priori load prediction, before any region masking.
func (s *Schedule) StaticOps() []float64 {
	loads := make([]float64, s.threads)
	for w := 0; w < s.threads; w++ {
		for sp, span := range s.spans {
			loads[w] += float64(s.Count(w, sp)) * span.Cost
		}
	}
	return loads
}

// Imbalance returns the max/avg ratio of StaticOps (1.0 = perfect balance).
func (s *Schedule) Imbalance() float64 {
	loads := s.StaticOps()
	max, sum := 0.0, 0.0
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(s.threads))
}

// strideCount returns how many indices in [lo, hi) are congruent to w
// modulo t: worker w's share of a span under the paper's cyclic distribution.
func strideCount(lo, hi, w, t int) int {
	first := lo + (w-lo%t+t)%t
	if first >= hi {
		return 0
	}
	return (hi - first + t - 1) / t
}

// buildCyclic gives every worker of every span the pattern count the
// strided distribution would (strideCount), as one contiguous run; the runs
// tile the span in worker order from its start (a sequential schedule is one
// full-span run).
func (s *Schedule) buildCyclic() {
	t := s.threads
	for sp, span := range s.spans {
		lo := span.Lo
		for w := 0; w < t; w++ {
			hi := lo + strideCount(span.Lo, span.Hi, w, t)
			s.runs[w][sp] = Run{Lo: lo, Hi: hi}
			lo = hi
		}
	}
}

// buildBlock cuts the whole global space into T contiguous slices and
// intersects each worker's slice with every span.
func (s *Schedule) buildBlock() {
	t := s.threads
	slice := (s.total + t - 1) / t
	if slice == 0 {
		slice = 1
	}
	for w := 0; w < t; w++ {
		lo, hi := w*slice, (w+1)*slice
		if hi > s.total {
			hi = s.total
		}
		for sp, span := range s.spans {
			a, b := lo, hi
			if a < span.Lo {
				a = span.Lo
			}
			if b > span.Hi {
				b = span.Hi
			}
			if a < b {
				s.runs[w][sp] = Run{Lo: a, Hi: b}
			}
		}
	}
}

// buildWeighted is the cost-aware assignment. Every span is cut into the same
// share sizes the cyclic distribution would produce (len/T patterns per
// worker, the len%T remainder spread as +1 extras), but the shares are
// placed by cost, by LPT bin-packing: shares are sorted by descending
// op cost and each is given to the least-loaded worker that has no share of
// that span yet. A final swap pass moves +1 extras from the most- to the
// least-loaded worker while that narrows the spread. Per-span counts match
// cyclic within the same ±1 pattern, so narrow (single-partition) regions
// stay as balanced as the paper's distribution, while the global per-worker
// cost totals become strictly better balanced on mixed DNA/protein data.
func (s *Schedule) buildWeighted() {
	t := s.threads
	type share struct {
		span, size int
	}
	var items []share
	for sp, span := range s.spans {
		n := span.Len()
		if n == 0 {
			continue
		}
		nc := t
		if n < t {
			nc = n
		}
		base, extra := n/nc, n%nc
		for c := 0; c < nc; c++ {
			size := base
			if c < extra {
				size++
			}
			items = append(items, share{span: sp, size: size})
		}
	}
	// LPT: largest shares first; deterministic tie-breaks.
	sort.SliceStable(items, func(i, j int) bool {
		ci := float64(items[i].size) * s.spans[items[i].span].Cost
		cj := float64(items[j].size) * s.spans[items[j].span].Cost
		if ci != cj {
			return ci > cj
		}
		return items[i].span < items[j].span
	})
	loads := make([]float64, t)
	counts := make([][]int, t) // [worker][span] -> assigned pattern count
	for w := range counts {
		counts[w] = make([]int, len(s.spans))
	}
	taken := make([][]bool, t) // [worker][span] -> already has a share
	for w := range taken {
		taken[w] = make([]bool, len(s.spans))
	}
	for _, it := range items {
		best := -1
		for w := 0; w < t; w++ {
			if taken[w][it.span] {
				continue
			}
			if best < 0 || loads[w] < loads[best] {
				best = w
			}
		}
		taken[best][it.span] = true
		counts[best][it.span] = it.size
		loads[best] += float64(it.size) * s.spans[it.span].Cost
	}
	// Refinement: move one pattern of some span from the most-loaded to the
	// least-loaded worker while the span's cost is below the load gap. This
	// keeps every per-span count within the cyclic ±1 band (a move only
	// happens from a worker holding an above-average share of the span).
	for iter := 0; iter < 4*t*len(s.spans); iter++ {
		wmax, wmin := 0, 0
		for w := 1; w < t; w++ {
			if loads[w] > loads[wmax] {
				wmax = w
			}
			if loads[w] < loads[wmin] {
				wmin = w
			}
		}
		gap := loads[wmax] - loads[wmin]
		moved := false
		// Prefer moving the most expensive pattern that still shrinks the gap.
		// A move is legal only while both counts stay inside the cyclic band
		// [floor(n/T), ceil(n/T)], preserving per-span (narrow-region) balance.
		bestSpan, bestCost := -1, 0.0
		for sp, span := range s.spans {
			n := span.Len()
			if n == 0 || span.Cost <= 0 || span.Cost >= gap {
				continue
			}
			low, high := n/t, (n+t-1)/t
			if counts[wmax][sp] > low && counts[wmin][sp] < high {
				if span.Cost > bestCost {
					bestSpan, bestCost = sp, span.Cost
				}
			}
		}
		if bestSpan >= 0 {
			counts[wmax][bestSpan]--
			counts[wmin][bestSpan]++
			loads[wmax] -= bestCost
			loads[wmin] += bestCost
			moved = true
		}
		if !moved {
			break
		}
	}
	// Lay out each span's per-worker counts as contiguous ranges in worker
	// order (deterministic): one run per worker per span.
	for sp, span := range s.spans {
		off := span.Lo
		for w := 0; w < t; w++ {
			s.runs[w][sp] = Run{Lo: off, Hi: off + counts[w][sp]}
			off += counts[w][sp]
		}
	}
}

// PartitionCosts holds one caller-supplied per-pattern cost per span
// (partition), in any unit: only cost *ratios* matter to the LPT packing. A
// zero, negative, or NaN entry leaves that span's cost in place on Rebalance.
type PartitionCosts []float64

// Rebalance is a pure function: the weighted pack of s's spans and worker
// count under the supplied per-pattern prices. The result carries the Measured
// strategy, covers the identical global pattern space (every pattern index
// assigned to exactly one worker — see the property test), and shares no
// mutable state with s.
func (s *Schedule) Rebalance(observed PartitionCosts) (*Schedule, error) {
	if len(observed) != len(s.spans) {
		return nil, fmt.Errorf("schedule: %d observed costs for %d spans", len(observed), len(s.spans))
	}
	spans := append([]Span(nil), s.spans...)
	for i, c := range observed {
		if c > 0 && !math.IsNaN(c) && !math.IsInf(c, 0) {
			spans[i].Cost = c
		}
	}
	return New(Measured, s.threads, spans)
}
