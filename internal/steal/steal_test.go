package steal

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"phylo/internal/parallel"
	"phylo/internal/schedule"
)

// randomSpans mirrors the schedule package's generator: consecutive spans of
// mixed DNA-like and protein-like per-pattern costs.
func randomSpans(seed int64) []schedule.Span {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(6)
	spans := make([]schedule.Span, n)
	off := 0
	for i := range spans {
		length := rng.Intn(500)
		cost := 160.0
		if rng.Intn(2) == 1 {
			cost = 3360.0
		}
		spans[i] = schedule.Span{Lo: off, Hi: off + length, Cost: cost}
		off += length
	}
	return spans
}

// claimAll runs T concurrent workers against one armed runtime, each
// draining chunks through Next across the given number of steps (calling
// NextStep between them), and returns every (step, chunk id) claim. Workers
// alternate between fast and artificially slow chunk processing so the fast
// ones drain early and must steal to stay busy.
func claimAll(t *testing.T, rt *Runtime, threads, steps int, slowEvery int) [][]int {
	t.Helper()
	claims := make([][][]int, threads) // [worker][step] -> ids
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		claims[w] = make([][]int, steps)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := parallel.WorkerCtx{Worker: w, Concurrent: true}
			for s := 0; s < steps; s++ {
				if s > 0 {
					rt.NextStep(w, &ctx)
				}
				for {
					id := rt.Next(w, &ctx)
					if id < 0 {
						break
					}
					claims[w][s] = append(claims[w][s], id)
					if slowEvery > 0 && w%slowEvery == 0 {
						time.Sleep(50 * time.Microsecond) // make this worker the victim
					}
				}
			}
		}(w)
	}
	wg.Wait()
	perStep := make([][]int, steps)
	for s := 0; s < steps; s++ {
		for w := 0; w < threads; w++ {
			perStep[s] = append(perStep[s], claims[w][s]...)
		}
	}
	return perStep
}

// verifyExactCover checks that one step's claims execute every pattern of
// every active span exactly once.
func verifyExactCover(t *testing.T, l *Layout, spans []schedule.Span, active []bool, ids []int) {
	t.Helper()
	total := 0
	if len(spans) > 0 {
		total = spans[len(spans)-1].Hi
	}
	seen := make([]int, total)
	claimed := make([]bool, l.NumChunks())
	for _, id := range ids {
		if claimed[id] {
			t.Fatalf("chunk %d claimed twice", id)
		}
		claimed[id] = true
		c := l.Chunk(id)
		if active != nil && !active[c.Span] {
			t.Fatalf("chunk %d of inactive span %d handed out", id, c.Span)
		}
		for i := c.Lo; i < c.Hi; i += c.Step {
			seen[i]++
		}
	}
	for sp, span := range spans {
		want := 1
		if active != nil && !active[sp] {
			want = 0
		}
		for i := span.Lo; i < span.Hi; i++ {
			if seen[i] != want {
				t.Fatalf("pattern %d (span %d) executed %d times, want %d", i, sp, seen[i], want)
			}
		}
	}
}

// TestStealingNeverDropsOrDuplicatesPatterns is the satellite property test
// mirroring schedule's TestRebalanceNeverDropsOrDuplicatesPatterns at the
// stealing layer: under real concurrent workers — with deliberately skewed
// per-chunk processing speed so half-steals actually fire — every pattern of
// every span is executed exactly once per step, for every strategy, worker
// count, and chunk size.
func TestStealingNeverDropsOrDuplicatesPatterns(t *testing.T) {
	for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Weighted} {
		strat := strat
		f := func(seedRaw uint16, tRaw, mcRaw uint8) bool {
			spans := randomSpans(int64(seedRaw) + 999)
			threads := 2 + int(tRaw%7)
			minChunk := 1 + int(mcRaw%80)
			s, err := schedule.New(strat, threads, spans)
			if err != nil {
				return false
			}
			l := NewLayout(s, minChunk)
			rt := NewRuntime(l, true)
			const steps = 2
			rt.Load(nil)
			perStep := claimAll(t, rt, threads, steps, 2)
			rt.Finish()
			for s := 0; s < steps; s++ {
				verifyExactCover(t, l, spans, nil, perStep[s])
			}
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
	}
}

// TestActiveMaskFiltersSpans checks that Load only arms chunks of active
// spans and that coverage over the active subset stays exact.
func TestActiveMaskFiltersSpans(t *testing.T) {
	spans := []schedule.Span{{Lo: 0, Hi: 300, Cost: 160}, {Lo: 300, Hi: 700, Cost: 3360}, {Lo: 700, Hi: 900, Cost: 160}}
	s, err := schedule.New(schedule.Weighted, 4, spans)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(s, 32)
	rt := NewRuntime(l, true)
	active := []bool{true, false, true}
	rt.Load(active)
	perStep := claimAll(t, rt, 4, 1, 2)
	rt.Finish()
	verifyExactCover(t, l, spans, active, perStep[0])
}

// TestSerialModeHandsOutOwnChunksOnly checks the owner-only contract, which
// both a serial executor (stealing or not) and a concurrent one with
// thieving off must meet: workers receive exactly their scheduled chunks, in
// ascending order, never steal, and NextStep rewinds per worker without
// synchronizing — the test drives all four "concurrent" workers from one
// goroutine, so a step barrier would deadlock it.
func TestSerialModeHandsOutOwnChunksOnly(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		spans := randomSpans(7)
		s, err := schedule.New(schedule.Weighted, 4, spans)
		if err != nil {
			t.Fatal(err)
		}
		l := NewLayout(s, 16)
		rt := NewRuntime(l, !concurrent)
		rt.Load(nil)
		for step := 0; step < 2; step++ {
			for w := 0; w < 4; w++ { // one worker after another, as serial executors run them
				ctx := parallel.WorkerCtx{Worker: w, Concurrent: concurrent}
				if step > 0 {
					rt.NextStep(w, &ctx)
				}
				prev := -1
				count := 0
				for {
					id := rt.Next(w, &ctx)
					if id < 0 {
						break
					}
					if c := l.Chunk(id); c.Owner != w {
						t.Fatalf("owner-only worker %d received chunk %d owned by %d", w, id, c.Owner)
					}
					if id <= prev {
						t.Fatalf("owner-only worker %d ids not ascending: %d after %d", w, id, prev)
					}
					prev = id
					count++
				}
				if want := len(l.byWorker[w]); count != want {
					t.Fatalf("owner-only worker %d drained %d chunks, want %d", w, count, want)
				}
				if ctx.Steals != 0 || ctx.StolenPatterns != 0 || ctx.Idle != 0 {
					t.Fatalf("owner-only worker %d recorded steals %v/%v, idle %v", w, ctx.Steals, ctx.StolenPatterns, ctx.Idle)
				}
			}
		}
		rt.Finish()
		if rt.Steps() != 0 {
			t.Errorf("concurrent=%v: owner-only NextStep passed %d barriers, want 0", concurrent, rt.Steps())
		}
	}
}

// TestStealsAreRecordedAndTargetTheCostliestVictim drains a two-worker
// layout where worker 0 never processes anything: worker 1 must steal, the
// steal counters must land in its WorkerCtx, and with stealing disabled the
// same situation must leave worker 0's deque untouched.
func TestStealsAreRecordedAndTargetTheCostliestVictim(t *testing.T) {
	spans := []schedule.Span{{Lo: 0, Hi: 640, Cost: 160}}
	s, err := schedule.New(schedule.Weighted, 2, spans)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(s, 32)
	rt := NewRuntime(l, true)
	rt.Load(nil)
	thief := parallel.WorkerCtx{Worker: 1, Concurrent: true}
	got := 0
	for {
		id := rt.Next(1, &thief)
		if id < 0 {
			break
		}
		got += l.Chunk(id).Patterns()
	}
	rt.Finish()
	if got != 640 {
		t.Errorf("thief processed %d patterns, want all 640", got)
	}
	if thief.Steals == 0 || thief.StolenPatterns == 0 {
		t.Errorf("steals not recorded: %v ops, %v patterns", thief.Steals, thief.StolenPatterns)
	}
	if thief.StolenPatterns != 320 {
		t.Errorf("thief stole %v patterns, want worker 0's share of 320", thief.StolenPatterns)
	}

	rt = NewRuntime(l, false)
	rt.Load(nil)
	idle := parallel.WorkerCtx{Worker: 1, Concurrent: true}
	n := 0
	for rt.Next(1, &idle) >= 0 {
		n++
	}
	rt.Finish()
	if idle.Steals != 0 {
		t.Errorf("stealing disabled but %v steals recorded", idle.Steals)
	}
	if want := len(l.byWorker[1]); n != want {
		t.Errorf("stealing disabled: worker 1 drained %d chunks, want only its own %d", n, want)
	}
}

// TestLayoutRespectsMinChunkDefault checks defaulting, the per-chunk cost
// estimate against the span pricing, each chunk's owner share, and the
// memory pricing against a real runtime's buffers.
func TestLayoutRespectsMinChunkDefault(t *testing.T) {
	spans := []schedule.Span{{Lo: 0, Hi: 1000, Cost: 2}}
	s, err := schedule.New(schedule.Block, 2, spans)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(s, 0)
	if l.MinChunk() != DefaultMinChunk {
		t.Errorf("MinChunk = %d, want default %d", l.MinChunk(), DefaultMinChunk)
	}
	totalCost, totalPatterns := 0.0, 0
	// The global-alignment snap can shave up to ChunkAlign-1 patterns off a
	// run's final chunk.
	floor := DefaultMinChunk - (schedule.ChunkAlign - 1)
	for id := 0; id < l.NumChunks(); id++ {
		c := l.Chunk(id)
		if c.Patterns() < floor {
			t.Errorf("chunk %d has %d patterns, below the %d floor", id, c.Patterns(), floor)
		}
		if want := s.Count(c.Owner, c.Span); c.Share != want {
			t.Errorf("chunk %d share %d, want owner %d's %d patterns of span %d", id, c.Share, c.Owner, want, c.Span)
		}
		totalCost += c.Cost
		totalPatterns += c.Patterns()
	}
	rt := NewRuntime(l, true)
	held := int64(len(rt.deques)) * 128
	for w := range rt.arrs {
		held += 4 * int64(len(rt.arrs[w])+cap(rt.loaded[w]))
	}
	if got := l.RuntimeBytes(); got != held {
		t.Errorf("RuntimeBytes = %d, runtime holds %d", got, held)
	}
	if got, want := l.MemoryBytes(), int64(l.NumChunks())*(7*8+4); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
	if totalPatterns != 1000 || totalCost != 2000 {
		t.Errorf("layout totals %d patterns / %v cost, want 1000 / 2000", totalPatterns, totalCost)
	}
}
