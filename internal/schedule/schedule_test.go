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
// runs stay inside their span, ascending and disjoint.
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
					prev := span.Lo - 1
					for _, r := range s.SpanRuns(w, sp) {
						if r.Step < 1 || r.Lo <= prev || r.Hi > span.Hi || r.Lo < span.Lo || r.Hi <= r.Lo {
							t.Logf("%v: bad run %+v in span %d [%d,%d)", strat, r, sp, span.Lo, span.Hi)
							return false
						}
						prev = r.Lo
						n := 0
						for i := r.Lo; i < r.Hi; i += r.Step {
							if owner[i] != -1 {
								t.Logf("%v: index %d owned by both %d and %d", strat, i, owner[i], w)
								return false
							}
							owner[i] = w
							n++
						}
						if n != r.Len() {
							t.Logf("%v: run %+v iterates %d indices, Len() says %d", strat, r, n, r.Len())
							return false
						}
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

// TestCyclicMatchesStrideArithmetic pins Cyclic to the exact strided
// distribution the kernels used to hard-code: worker w owns precisely the
// indices reachable by `for i := strideStart(lo, w, T); i < hi; i += T`.
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
				var want []int
				for i := strideStart(span.Lo, w, threads); i < span.Hi; i += threads {
					want = append(want, i)
				}
				if len(want) != strideCount(span.Lo, span.Hi, w, threads) {
					return false
				}
				var got []int
				for _, r := range s.SpanRuns(w, sp) {
					for i := r.Lo; i < r.Hi; i += r.Step {
						got = append(got, i)
					}
				}
				if len(got) != len(want) {
					return false
				}
				for k := range got {
					if got[k] != want[k] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestStrideHelpers(t *testing.T) {
	// Worker w owns indices i ≡ w (mod T) within [lo, hi); these cases are
	// carried over from the old parallel.StrideStart/StrideCount tests.
	for _, tc := range []struct{ lo, hi, w, t, start, count int }{
		{0, 10, 0, 4, 0, 3},
		{0, 10, 1, 4, 1, 3},
		{0, 10, 2, 4, 2, 2},
		{0, 10, 3, 4, 3, 2},
		{5, 9, 0, 4, 8, 1},
		{5, 9, 1, 4, 5, 1},
		{5, 9, 3, 4, 7, 1},
		{5, 6, 2, 4, 9, 0}, // start beyond hi -> 0
		{7, 7, 0, 2, 8, 0},
		{0, 3, 0, 8, 0, 1}, // fewer patterns than workers: some idle
		{0, 3, 5, 8, 5, 0},
	} {
		s := strideStart(tc.lo, tc.w, tc.t)
		if s != tc.start && strideCount(tc.lo, tc.hi, tc.w, tc.t) != 0 {
			t.Errorf("strideStart(%d,%d,%d) = %d, want %d", tc.lo, tc.w, tc.t, s, tc.start)
		}
		if c := strideCount(tc.lo, tc.hi, tc.w, tc.t); c != tc.count {
			t.Errorf("strideCount(%d,%d,%d,%d) = %d, want %d", tc.lo, tc.hi, tc.w, tc.t, c, tc.count)
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
				for _, r := range reb.SpanRuns(w, sp) {
					if r.Lo < span.Lo || r.Hi > span.Hi {
						t.Logf("run %+v escapes span %d [%d,%d)", r, sp, span.Lo, span.Hi)
						return false
					}
					for i := r.Lo; i < r.Hi; i += r.Step {
						if owner[i] != -1 {
							t.Logf("pattern %d duplicated across workers %d and %d", i, owner[i], w)
							return false
						}
						owner[i] = w
					}
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

// TestChunkRunsCoverAssignmentExactly is the chunk-emission property behind
// the work-stealing runtime: for every strategy, splitting every worker's
// span runs into chunks reproduces the schedule's assignment exactly — no
// pattern dropped, duplicated, or moved to another worker — and every chunk
// respects the size contract (at least the aligned minimum, at most one
// pattern short of two chunks, except where the whole run is smaller).
func TestChunkRunsCoverAssignmentExactly(t *testing.T) {
	for _, strat := range []Strategy{Cyclic, Block, Weighted, Measured} {
		strat := strat
		f := func(seedRaw uint16, tRaw uint8, mcRaw uint8) bool {
			spans := randomSpans(int64(seedRaw) + 555)
			threads := 1 + int(tRaw%17)
			minChunk := 1 + int(mcRaw%97)
			s, err := New(strat, threads, spans)
			if err != nil {
				return false
			}
			mc := (minChunk + ChunkAlign - 1) / ChunkAlign * ChunkAlign
			owner := make([]int, s.Total())
			for i := range owner {
				owner[i] = -1
			}
			for w := 0; w < threads; w++ {
				for sp := range spans {
					whole := 0
					for _, r := range s.SpanRuns(w, sp) {
						whole += r.Len()
					}
					got := 0
					chunks := s.ChunkRuns(w, sp, minChunk)
					for ci, c := range chunks {
						n := c.Len()
						got += n
						if n == 0 {
							t.Logf("%v: empty chunk %+v", strat, c)
							return false
						}
						if n > 2*mc-1 && whole > n {
							t.Logf("%v: chunk %+v has %d patterns (> %d) but run is larger", strat, c, n, 2*mc-1)
							return false
						}
						// Interior boundaries of contiguous runs must fall on
						// globally aligned pattern indices (the false-sharing
						// contract the steal runtime relies on).
						if c.Step == 1 && ci > 0 && chunks[ci-1].Step == 1 && chunks[ci-1].Hi == c.Lo {
							if c.Lo%ChunkAlign != 0 {
								t.Logf("%v: interior cut at %d is not %d-aligned", strat, c.Lo, ChunkAlign)
								return false
							}
						}
						for i := c.Lo; i < c.Hi; i += c.Step {
							if owner[i] != -1 {
								t.Logf("%v: pattern %d chunked twice (workers %d, %d)", strat, i, owner[i], w)
								return false
							}
							owner[i] = w
						}
					}
					if got != whole {
						t.Logf("%v: worker %d span %d chunks cover %d of %d patterns", strat, w, sp, got, whole)
						return false
					}
				}
			}
			// Chunk ownership must equal run ownership index by index.
			for w := 0; w < threads; w++ {
				for sp := range spans {
					for _, r := range s.SpanRuns(w, sp) {
						for i := r.Lo; i < r.Hi; i += r.Step {
							if owner[i] != w {
								t.Logf("%v: pattern %d assigned to %d but chunked to %d", strat, i, w, owner[i])
								return false
							}
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
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
		runs := s.WorkerRuns(w)
		for i, r := range runs {
			if r.Step != 1 {
				t.Errorf("worker %d: block run %+v is not contiguous", w, r)
			}
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
			runs := s.SpanRuns(0, sp)
			if len(runs) != 1 || runs[0] != (Run{Lo: span.Lo, Hi: span.Hi, Step: 1}) {
				t.Errorf("%v: span %d runs = %+v, want one full contiguous run", strat, sp, runs)
			}
		}
		if s.Imbalance() != 1 {
			t.Errorf("%v: T=1 imbalance = %v, want 1", strat, s.Imbalance())
		}
	}
}
