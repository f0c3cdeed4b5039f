// Package schedule computes pattern-to-worker assignments for the likelihood
// kernel. The global pattern space [0, Total) is the concatenation of the
// partitions' compressed patterns; a Schedule precomputes, per worker and per
// partition, the [Lo, Hi) index runs that worker owns (contiguous for the
// block and weighted strategies, stride-encoded for cyclic). Kernels iterate
// runs instead of hard-coding a distribution, which turns the paper's fixed
// design decision (cyclic striding, Sec. IV) into a pluggable, benchmarkable
// axis:
//
//   - Cyclic: worker w owns the indices congruent to w modulo the worker
//     count. This is the paper's choice and the default; it balances every
//     partition individually by pattern count, so even narrow single-partition
//     regions (oldPAR) keep all workers busy.
//   - Block: each worker owns one contiguous slice of the whole pattern
//     space. The ablation the paper argues against: narrow regions land on
//     one or two workers, and mixed alignments give some workers only cheap
//     columns.
//   - Weighted: an LPT (longest-processing-time) bin-packing of per-partition
//     pattern chunks onto workers using per-pattern op costs, so mixed
//     DNA/protein datasets balance by cost rather than by count while every
//     worker still receives at most one contiguous run per partition.
//   - Measured: the weighted pack under caller-supplied prices (Rebalance).
//     Nothing in the program reprices a schedule at run time — a dataset's
//     schedule is built once and never changes (DESIGN.md "Why the schedule
//     is immutable") — so no analysis option selects it.
//
// Schedules feed the deterministic kernels, so schedule construction is a
// deterministic scope itself: equal inputs must yield equal assignments.
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
	// Cyclic is the paper's distribution: indices modulo the worker count.
	Cyclic Strategy = iota
	// Block gives each worker one contiguous slice of the global space.
	Block
	// Weighted LPT-bin-packs contiguous per-partition chunks by op cost.
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

// Run is a strided half-open global pattern index interval: the indices
// Lo, Lo+Step, Lo+2*Step, ... below Hi. Step is always >= 1; block and
// weighted assignments emit contiguous runs (Step == 1), while one cyclic
// run encodes a worker's whole share of a span in O(1) memory (Step == T).
// Iterate with `for i := r.Lo; i < r.Hi; i += r.Step`.
type Run struct {
	Lo, Hi, Step int
}

// Len returns the pattern count of the run.
func (r Run) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return (r.Hi - r.Lo + r.Step - 1) / r.Step
}

// Schedule is a precomputed pattern-to-worker assignment: for every worker
// and every span (partition), an ordered list of disjoint runs. Together the
// runs of all workers partition every span exactly.
type Schedule struct {
	strategy Strategy
	threads  int
	total    int
	spans    []Span
	runs     [][][]Run // [worker][span] -> ascending disjoint runs
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
		runs:     make([][][]Run, threads),
	}
	for w := range s.runs {
		s.runs[w] = make([][]Run, len(spans))
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

// SpanRuns returns worker w's runs inside span sp, ascending and disjoint.
// The returned slice is shared; callers must not modify it.
func (s *Schedule) SpanRuns(w, sp int) []Run { return s.runs[w][sp] }

// ChunkAlign is the pattern-count multiple that chunk cuts snap to. Sixteen
// patterns cover one 64-byte cache line of int32 scaling exponents (the
// densest per-pattern array the kernels write), so two workers processing
// adjacent chunks of a contiguous run never contend on the same scaling
// cache line; CLV rows are >= 32 bytes per pattern and need no finer grain.
const ChunkAlign = 16

// ChunkRuns splits worker w's runs inside span sp into chunk-sized sub-runs
// for the work-stealing runtime. The chunk size is minChunk rounded up to a
// ChunkAlign multiple; for contiguous runs (Step 1) every interior cut is
// additionally snapped forward onto a *global* pattern index that is a
// ChunkAlign multiple — a run can start anywhere under the LPT packs, so
// run-relative cuts alone would not keep two adjacent chunks off one cache
// line of the scaling vectors (strided cyclic runs interleave workers per
// pattern anyway, so their cuts stay on plain size boundaries). The final
// chunk of each run absorbs any remainder shorter than a full chunk; with
// the alignment snap a chunk therefore holds between minChunk-(ChunkAlign-1)
// and 2*minChunk-1 patterns (except a whole run smaller than that). The
// union of the emitted chunks over all workers and spans is exactly the
// schedule's assignment — chunking never drops, duplicates, or reorders a
// pattern, whatever the strategy. minChunk < 1 emits one chunk per run.
func (s *Schedule) ChunkRuns(w, sp, minChunk int) []Run {
	var out []Run
	mc := minChunk
	if mc < 1 {
		mc = 1 << 62 // one chunk per run
	} else {
		mc = (mc + ChunkAlign - 1) / ChunkAlign * ChunkAlign
	}
	for _, r := range s.runs[w][sp] {
		n := r.Len()
		if n == 0 {
			continue
		}
		full := n / mc // cut after every mc patterns; remainder joins the last
		if full <= 1 {
			out = append(out, r)
			continue
		}
		// Interior cuts sit at pattern ordinal c*mc + snap; mc is itself an
		// alignment multiple, so shifting every cut by one common snap < mc
		// aligns them all globally, growing the first chunk by at most
		// ChunkAlign-1 and shrinking the last by the same.
		snap := 0
		if r.Step == 1 {
			snap = (ChunkAlign - r.Lo%ChunkAlign) % ChunkAlign
		}
		prev := 0
		for c := 1; c <= full; c++ {
			b := c*mc + snap
			if c == full || b > n {
				b = n
			}
			out = append(out, Run{
				Lo:   r.Lo + prev*r.Step,
				Hi:   r.Lo + (b-1)*r.Step + 1,
				Step: r.Step,
			})
			prev = b
			if b == n {
				break
			}
		}
	}
	return out
}

// WorkerRuns returns all runs of worker w across spans, in ascending global
// order (spans are consecutive, so span order is global order).
func (s *Schedule) WorkerRuns(w int) []Run {
	var out []Run
	for sp := range s.spans {
		out = append(out, s.runs[w][sp]...)
	}
	return out
}

// MemoryBytes estimates the schedule's resident heap bytes: the span table
// plus every worker's per-span run lists. Used by the dataset memory
// accounting that prices cache eviction in the serving layer.
func (s *Schedule) MemoryBytes() int64 {
	total := 24 * int64(len(s.spans)) // Span{Lo, Hi int; Cost float64}
	for w := range s.runs {
		for _, runs := range s.runs[w] {
			total += 24 * int64(len(runs)) // Run{Lo, Hi, Step int}
		}
	}
	return total
}

// Count returns how many patterns of span sp worker w owns.
func (s *Schedule) Count(w, sp int) int {
	n := 0
	for _, r := range s.runs[w][sp] {
		n += r.Len()
	}
	return n
}

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

// strideStart returns the first global index >= lo owned by worker w under
// cyclic distribution over t workers (the arithmetic the kernels used to
// hard-code; kept as the reference for the Cyclic builder).
func strideStart(lo, w, t int) int {
	r := lo % t
	d := w - r
	if d < 0 {
		d += t
	}
	return lo + d
}

// strideCount returns how many indices in [lo, hi) worker w owns cyclically.
func strideCount(lo, hi, w, t int) int {
	s := strideStart(lo, w, t)
	if s >= hi {
		return 0
	}
	return (hi - s + t - 1) / t
}

// buildCyclic reproduces the strided distribution exactly: worker w owns the
// indices congruent to w modulo the thread count, encoded as one strided run
// per span (Step = T, so a sequential schedule is one contiguous full-span
// run).
func (s *Schedule) buildCyclic() {
	t := s.threads
	for sp, span := range s.spans {
		for w := 0; w < t; w++ {
			if strideCount(span.Lo, span.Hi, w, t) == 0 {
				continue
			}
			s.runs[w][sp] = []Run{{Lo: strideStart(span.Lo, w, t), Hi: span.Hi, Step: t}}
		}
	}
}

// buildBlock slices the whole global space into T contiguous chunks and
// intersects each worker's chunk with every span.
func (s *Schedule) buildBlock() {
	t := s.threads
	chunk := (s.total + t - 1) / t
	if chunk == 0 {
		chunk = 1
	}
	for w := 0; w < t; w++ {
		lo, hi := w*chunk, (w+1)*chunk
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
				s.runs[w][sp] = []Run{{Lo: a, Hi: b, Step: 1}}
			}
		}
	}
}

// buildWeighted is the cost-aware assignment. Every span is cut into the same
// share sizes the cyclic distribution would produce (len/T patterns per
// worker, the len%T remainder spread as +1 extras), but shares are kept
// contiguous and placed by LPT bin-packing: chunks are sorted by descending
// op cost and each is given to the least-loaded worker that has no chunk of
// that span yet. A final swap pass moves +1 extras from the most- to the
// least-loaded worker while that narrows the spread. Per-span counts match
// cyclic within the same ±1 pattern, so narrow (single-partition) regions
// stay as balanced as the paper's distribution, while the global per-worker
// cost totals become strictly better balanced on mixed DNA/protein data.
func (s *Schedule) buildWeighted() {
	t := s.threads
	type chunk struct {
		span, size int
	}
	var items []chunk
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
			items = append(items, chunk{span: sp, size: size})
		}
	}
	// LPT: largest chunks first; deterministic tie-breaks.
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
	taken := make([][]bool, t) // [worker][span] -> already has a chunk
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
	// order (deterministic), producing at most one run per worker per span.
	for sp, span := range s.spans {
		off := span.Lo
		for w := 0; w < t; w++ {
			n := counts[w][sp]
			if n == 0 {
				continue
			}
			s.runs[w][sp] = []Run{{Lo: off, Hi: off + n, Step: 1}}
			off += n
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
