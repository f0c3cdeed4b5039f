package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSpans builds a consecutive span layout from a seed: up to 8 spans of
// up to 400 patterns each, alternating cheap (DNA-like) and expensive
// (protein-like) per-pattern costs.
func randomSpans(seed int64) []Span {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(8)
	spans := make([]Span, n)
	off := 0
	for i := range spans {
		length := rng.Intn(400) // empty spans allowed
		cost := 160.0
		if rng.Intn(2) == 1 {
			cost = 3360.0 // ~21x, the DNA vs protein newview ratio at 4 cats
		}
		spans[i] = Span{Lo: off, Hi: off + length, Cost: cost}
		off += length
	}
	return spans
}

// TestEveryStrategyPartitions is the core property: for every strategy, every
// global pattern index in [0, Total) is assigned to exactly one worker, and
// every worker's run stays inside its span.
func TestEveryStrategyPartitions(t *testing.T) {
	for _, strat := range []Strategy{Cyclic, Block, Weighted, Measured} {
		strat := strat
		f := func(seedRaw uint16, tRaw uint8) bool {
			spans := randomSpans(int64(seedRaw))
			threads := 1 + int(tRaw%33)
			s, err := New(strat, threads, spans)
			if err != nil {
				return false
			}
			total := s.Total()
			owner := make([]int, total)
			for i := range owner {
				owner[i] = -1
			}
			for w := 0; w < threads; w++ {
				for sp, span := range spans {
					r := s.SpanRun(w, sp)
					if r.Len() > 0 && (r.Hi > span.Hi || r.Lo < span.Lo) {
						t.Logf("%v: bad run %+v in span %d [%d,%d)", strat, r, sp, span.Lo, span.Hi)
						return false
					}
					if r.Len() != s.Count(w, sp) {
						t.Logf("%v: run %+v, Count says %d", strat, r, s.Count(w, sp))
						return false
					}
					for i := r.Lo; i < r.Hi; i++ {
						if owner[i] != -1 {
							t.Logf("%v: index %d owned by both %d and %d", strat, i, owner[i], w)
							return false
						}
						owner[i] = w
					}
				}
			}
			for i, w := range owner {
				if w == -1 {
					t.Logf("%v: index %d unassigned", strat, i)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
	}
}

// stripeCount is worker w's share of [lo, hi) under the paper's strided
// distribution over t workers: the indices congruent to w modulo t, counted
// one by one.
func stripeCount(lo, hi, w, t int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if i%t == w {
			n++
		}
	}
	return n
}

// TestCyclicKeepsStripeCounts pins Cyclic to the paper's per-partition
// balance: for T in 1..16 and random consecutive spans (empty ones and ones
// shorter than T included), worker w owns exactly the stripe count of every
// span, as one run, and the workers' runs tile the span in worker order.
func TestCyclicKeepsStripeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for threads := 1; threads <= 16; threads++ {
		for trial := 0; trial < 40; trial++ {
			spans := make([]Span, 1+rng.Intn(6))
			off := 0
			for i := range spans {
				n := rng.Intn(3 * threads) // empty, shorter than T and longer
				if rng.Intn(4) == 0 {
					n = rng.Intn(300)
				}
				spans[i] = Span{Lo: off, Hi: off + n, Cost: 160}
				off += n
			}
			s, err := New(Cyclic, threads, spans)
			if err != nil {
				t.Fatal(err)
			}
			for sp, span := range spans {
				lo := span.Lo
				for w := 0; w < threads; w++ {
					r := s.SpanRun(w, sp)
					want := stripeCount(span.Lo, span.Hi, w, threads)
					if got := s.Count(w, sp); got != want {
						t.Fatalf("T=%d span %d [%d,%d): worker %d owns %d patterns, the stripe has %d", threads, sp, span.Lo, span.Hi, w, got, want)
					}
					if r != (Run{Lo: lo, Hi: lo + want}) {
						t.Fatalf("T=%d span %d [%d,%d): worker %d's run is %+v, want [%d,%d)", threads, sp, span.Lo, span.Hi, w, r, lo, lo+want)
					}
					lo = r.Hi
				}
				if lo != span.Hi {
					t.Fatalf("T=%d span %d [%d,%d): the runs end at %d", threads, sp, span.Lo, span.Hi, lo)
				}
			}
		}
	}
}

// TestCyclicMatchesStrideArithmetic: on the random cost-mixed layouts of
// the other properties, at up to 33 workers, Cyclic gives worker w of every
// span the count the stride arithmetic (strideCount) gives, which is the
// one-by-one stripe count, as a single run.
func TestCyclicMatchesStrideArithmetic(t *testing.T) {
	f := func(seedRaw uint16, tRaw uint8) bool {
		spans := randomSpans(int64(seedRaw) + 9999)
		threads := 1 + int(tRaw%33)
		s, err := New(Cyclic, threads, spans)
		if err != nil {
			return false
		}
		for w := 0; w < threads; w++ {
			for sp, span := range spans {
				want := stripeCount(span.Lo, span.Hi, w, threads)
				if strideCount(span.Lo, span.Hi, w, threads) != want {
					return false
				}
				if s.Count(w, sp) != want || s.SpanRun(w, sp).Len() != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestStrideHelpers: worker w's stripe of [lo, hi) is the indices
// i ≡ w (mod T); these cases are carried over from the old
// parallel.StrideCount tests.
func TestStrideHelpers(t *testing.T) {
	for _, tc := range []struct{ lo, hi, w, t, count int }{
		{0, 10, 0, 4, 3},
		{0, 10, 1, 4, 3},
		{0, 10, 2, 4, 2},
		{0, 10, 3, 4, 2},
		{5, 9, 0, 4, 1},
		{5, 9, 1, 4, 1},
		{5, 9, 3, 4, 1},
		{5, 6, 2, 4, 0}, // first stripe index beyond hi -> 0
		{7, 7, 0, 2, 0},
		{0, 3, 0, 8, 1}, // fewer patterns than workers: some idle
		{0, 3, 5, 8, 0},
	} {
		if c := strideCount(tc.lo, tc.hi, tc.w, tc.t); c != tc.count {
			t.Errorf("strideCount(%d,%d,%d,%d) = %d, want %d", tc.lo, tc.hi, tc.w, tc.t, c, tc.count)
		}
		if c := stripeCount(tc.lo, tc.hi, tc.w, tc.t); c != tc.count {
			t.Errorf("stripeCount(%d,%d,%d,%d) = %d, want %d", tc.lo, tc.hi, tc.w, tc.t, c, tc.count)
		}
	}
}

// TestWeightedPerSpanBand verifies that Weighted never trades narrow-region
// balance for global balance: every worker's share of every span stays within
// the cyclic band [floor(n/T), ceil(n/T)].
func TestWeightedPerSpanBand(t *testing.T) {
	f := func(seedRaw uint16, tRaw uint8) bool {
		spans := randomSpans(int64(seedRaw) + 5555)
		threads := 1 + int(tRaw%33)
		s, err := New(Weighted, threads, spans)
		if err != nil {
			return false
		}
		for sp, span := range spans {
			n := span.Len()
			low, high := n/threads, (n+threads-1)/threads
			for w := 0; w < threads; w++ {
				c := s.Count(w, sp)
				if c < low || c > high {
					t.Logf("span %d (n=%d, T=%d): worker %d owns %d, band [%d,%d]",
						sp, n, threads, w, c, low, high)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestWeightedBalancesMixedCosts pins the point of the Weighted strategy: on
// a mixed cheap/expensive layout whose cyclic remainders pile the expensive
// extras onto low-numbered workers, Weighted's static cost imbalance must not
// exceed Cyclic's.
func TestWeightedBalancesMixedCosts(t *testing.T) {
	// 6 protein-like spans of 4k+1 patterns: under 4-thread cyclic striding
	// the +1 extras depend on each span's offset; with consecutive offsets of
	// equal lengths they rotate, so add DNA filler spans to desynchronize.
	var spans []Span
	off := 0
	add := func(n int, cost float64) {
		spans = append(spans, Span{Lo: off, Hi: off + n, Cost: cost})
		off += n
	}
	for i := 0; i < 6; i++ {
		add(33, 3360) // 33 = 8*4+1: one worker gets an extra protein column
		add(40, 160)
	}
	threads := 4
	cyc, err := New(Cyclic, threads, spans)
	if err != nil {
		t.Fatal(err)
	}
	wtd, err := New(Weighted, threads, spans)
	if err != nil {
		t.Fatal(err)
	}
	ci, wi := cyc.Imbalance(), wtd.Imbalance()
	if wi > ci+1e-12 {
		t.Errorf("weighted imbalance %v exceeds cyclic %v", wi, ci)
	}
	if wi < 1 || ci < 1 {
		t.Errorf("imbalance below 1: weighted %v cyclic %v", wi, ci)
	}
}

// TestParseAndString round-trips the selectable strategy names; Measured has
// a String but no name Parse accepts.
func TestParseAndString(t *testing.T) {
	for _, strat := range []Strategy{Cyclic, Block, Weighted} {
		got, err := Parse(strat.String())
		if err != nil || got != strat {
			t.Errorf("Parse(%q) = %v, %v", strat.String(), got, err)
		}
	}
	for _, name := range []string{Measured.String(), "adaptive", "feedback", "round-robin"} {
		if _, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) must fail", name)
		}
	}
	if _, err := New(Cyclic, 0, nil); err == nil {
		t.Error("expected error for zero threads")
	}
	if _, err := New(Cyclic, 2, []Span{{Lo: 1, Hi: 3}}); err == nil {
		t.Error("expected error for non-consecutive spans")
	}
}

// TestRebalanceNeverDropsOrDuplicatesPatterns is the property test for
// Rebalance: rebuilding a schedule from arbitrary caller-supplied
// per-pattern costs (including zero, NaN, and wildly skewed entries) must
// still assign every global pattern index to exactly one worker, keep the
// span layout identical, and carry the Measured strategy.
func TestRebalanceNeverDropsOrDuplicatesPatterns(t *testing.T) {
	f := func(seedRaw uint16, tRaw uint8, costRaw uint32) bool {
		spans := randomSpans(int64(seedRaw) + 31337)
		threads := 1 + int(tRaw%33)
		base, err := New(Measured, threads, spans)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(int64(costRaw)))
		observed := make(PartitionCosts, len(spans))
		for i := range observed {
			switch rng.Intn(5) {
			case 0:
				observed[i] = 0 // no observation: keep prior cost
			case 1:
				observed[i] = math.NaN() // corrupt sample: keep prior cost
			default:
				observed[i] = math.Exp(rng.Float64()*12 - 6) // ~e^-6..e^6 spread
			}
		}
		reb, err := base.Rebalance(observed)
		if err != nil {
			t.Logf("Rebalance failed: %v", err)
			return false
		}
		if reb.Strategy() != Measured || reb.Threads() != threads || reb.Total() != base.Total() {
			t.Logf("rebalanced identity wrong: %v T=%d total=%d", reb.Strategy(), reb.Threads(), reb.Total())
			return false
		}
		owner := make([]int, reb.Total())
		for i := range owner {
			owner[i] = -1
		}
		for w := 0; w < threads; w++ {
			for sp, span := range spans {
				r := reb.SpanRun(w, sp)
				if r.Len() > 0 && (r.Lo < span.Lo || r.Hi > span.Hi) {
					t.Logf("run %+v escapes span %d [%d,%d)", r, sp, span.Lo, span.Hi)
					return false
				}
				for i := r.Lo; i < r.Hi; i++ {
					if owner[i] != -1 {
						t.Logf("pattern %d duplicated across workers %d and %d", i, owner[i], w)
						return false
					}
					owner[i] = w
				}
			}
		}
		for i, w := range owner {
			if w == -1 {
				t.Logf("pattern %d dropped", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	// Length mismatch must be rejected.
	base, err := New(Measured, 3, []Span{{0, 10, 1}, {10, 30, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Rebalance(PartitionCosts{1}); err == nil {
		t.Error("expected error for observed-cost length mismatch")
	}
}

// TestBlockIsContiguous verifies each worker owns at most one contiguous
// global range under Block.
func TestBlockIsContiguous(t *testing.T) {
	spans := randomSpans(77)
	s, err := New(Block, 5, spans)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		// Spans are consecutive, so span order is global order.
		var runs []Run
		for sp := 0; sp < s.NumSpans(); sp++ {
			if r := s.SpanRun(w, sp); r.Len() > 0 {
				runs = append(runs, r)
			}
		}
		for i, r := range runs {
			if i > 0 && r.Lo != runs[i-1].Hi {
				t.Errorf("worker %d: gap between %+v and %+v", w, runs[i-1], r)
			}
		}
	}
}

// TestSequentialDegeneratesToFullSpans checks that T=1 schedules collapse to
// one run per span for every strategy (no per-pattern run overhead).
func TestSequentialDegeneratesToFullSpans(t *testing.T) {
	spans := []Span{{0, 100, 160}, {100, 250, 3360}}
	for _, strat := range []Strategy{Cyclic, Block, Weighted, Measured} {
		s, err := New(strat, 1, spans)
		if err != nil {
			t.Fatal(err)
		}
		for sp, span := range spans {
			if r := s.SpanRun(0, sp); r != (Run{Lo: span.Lo, Hi: span.Hi}) {
				t.Errorf("%v: span %d run = %+v, want the full span", strat, sp, r)
			}
		}
		if s.Imbalance() != 1 {
			t.Errorf("%v: T=1 imbalance = %v, want 1", strat, s.Imbalance())
		}
	}
}
