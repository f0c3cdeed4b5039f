package steal

import (
	"math/rand"
	"slices"
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
// same situation must leave worker 0's window untouched.
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
	held := int64(len(rt.wins))*128 + 4*int64(cap(rt.ids)) + 8*int64(cap(rt.cost)+cap(rt.offs))
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

// TestClaimOrderIsTheDequeOrder pins the exact chunk-id trace of the
// stealing runtime (the order its per-worker deques gave, which the windows
// keep), driven from one goroutine with concurrent contexts so every claim
// and steal happens at a known point. A holder claims from the head of its
// share (an owner ascending); a thief takes the half the holder would reach
// last and walks it from the far end, so a drained holder that steals back
// carries on where it stopped; a thief picks the victim with the most
// remaining cost.
func TestClaimOrderIsTheDequeOrder(t *testing.T) {
	// take calls Next n times for worker w and returns the ids handed out.
	take := func(rt *Runtime, ctxs []parallel.WorkerCtx, w, n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rt.Next(w, &ctxs[w])
		}
		return ids
	}
	// arm builds a weighted layout of threads shares of ten 64-pattern
	// chunks each (worker w owns ids 10w … 10w+9) and loads it with stealing.
	arm := func(threads int) (*Runtime, []parallel.WorkerCtx) {
		s, err := schedule.New(schedule.Weighted, threads, []schedule.Span{{Lo: 0, Hi: 640 * threads, Cost: 1}})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLayout(s, 64)
		if got, want := l.NumChunks(), 10*threads; got != want {
			t.Fatalf("layout has %d chunks, want %d", got, want)
		}
		for id := 0; id < l.NumChunks(); id++ {
			if c := l.Chunk(id); c.Owner != id/10 || c.Patterns() != 64 {
				t.Fatalf("chunk %d: owner %d, %d patterns; want owner %d, 64 patterns", id, c.Owner, c.Patterns(), id/10)
			}
		}
		rt := NewRuntime(l, true)
		ctxs := make([]parallel.WorkerCtx, threads)
		for w := range ctxs {
			ctxs[w] = parallel.WorkerCtx{Worker: w, Concurrent: true}
		}
		rt.Load(nil)
		return rt, ctxs
	}
	type claim struct {
		w    int
		want []int
	}
	for _, tc := range []struct {
		name    string
		threads int
		trace   []claim
		steals  []float64 // per worker, after the trace
	}{
		{"steal", 2, []claim{
			{1, []int{10, 11, 12, 13, 14, 15}},
			{0, []int{0, 1, 2}},
			{1, []int{16, 17, 18, 19, 9, 8, 7, 6}},
			{0, []int{3, 4, 5, -1}},
		}, []float64{0, 1}},
		{"re-steal", 2, []claim{
			{1, []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 9}},
			{0, []int{0, 1, 2, 3, 4, 5, 6}},
			{1, []int{8, 7, -1}},
			{0, []int{-1}},
		}, []float64{1, 1}},
		{"costliest victim", 3, []claim{
			{0, []int{0, 1, 2, 3, 4, 5, 6}},
			{1, []int{10, 11}},
			{2, []int{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 19, 18, 17, 16}},
			{1, []int{12, 13, 14}},
			{2, []int{9, 8}},
			{0, []int{7, 15, -1}},
			{1, []int{-1}},
			{2, []int{-1}},
		}, []float64{1, 0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, ctxs := arm(tc.threads)
			for i, c := range tc.trace {
				if got := take(rt, ctxs, c.w, len(c.want)); !slices.Equal(got, c.want) {
					t.Fatalf("claim %d: worker %d took %v, want %v", i, c.w, got, c.want)
				}
			}
			rt.Finish()
			for w, want := range tc.steals {
				if got := ctxs[w].Steals; got != want {
					t.Errorf("worker %d recorded %v steals, want %v", w, got, want)
				}
			}
		})
	}
}
