package parallel

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// strideFrom returns the first index >= lo congruent to w modulo t; the
// executor tests below split work cyclically by hand (production kernels get
// their assignment from internal/schedule, which owns the stride arithmetic).
func strideFrom(lo, w, t int) int {
	r := lo % t
	d := w - r
	if d < 0 {
		d += t
	}
	return lo + d
}

func testExecutorBasics(t *testing.T, ex Executor, wantThreads int) {
	t.Helper()
	if ex.Threads() != wantThreads {
		t.Fatalf("Threads() = %d, want %d", ex.Threads(), wantThreads)
	}
	var total int64
	var touched int64
	ex.Run(RegionNewview, func(w int, ctx *WorkerCtx) {
		atomic.AddInt64(&total, int64(w))
		atomic.AddInt64(&touched, 1)
		ctx.Ops = float64(10 * (w + 1))
	})
	if got := int(touched); got != wantThreads {
		t.Errorf("fn ran for %d workers, want %d", got, wantThreads)
	}
	wantSum := int64(wantThreads * (wantThreads - 1) / 2)
	if total != wantSum {
		t.Errorf("worker id sum = %d, want %d", total, wantSum)
	}
	st := ex.Stats()
	if st.Regions != 1 || st.KindRegions[RegionNewview] != 1 {
		t.Errorf("stats regions = %+v", st)
	}
	wantMax := float64(10 * wantThreads)
	if st.CriticalOps != wantMax {
		t.Errorf("CriticalOps = %v, want %v", st.CriticalOps, wantMax)
	}
	wantTotal := 0.0
	for w := 0; w < wantThreads; w++ {
		wantTotal += float64(10 * (w + 1))
	}
	if st.TotalOps != wantTotal {
		t.Errorf("TotalOps = %v, want %v", st.TotalOps, wantTotal)
	}
}

func TestSequentialExecutor(t *testing.T) {
	ex := NewSequential()
	defer ex.Close()
	testExecutorBasics(t, ex, 1)
}

func TestPoolExecutor(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7} {
		ex, err := NewPool(threads)
		if err != nil {
			t.Fatal(err)
		}
		testExecutorBasics(t, ex, threads)
		ex.Close()
	}
	if _, err := NewPool(0); err == nil {
		t.Error("expected error for 0 threads")
	}
}

func TestSimExecutor(t *testing.T) {
	for _, threads := range []int{1, 2, 8, 16} {
		ex, err := NewSim(threads)
		if err != nil {
			t.Fatal(err)
		}
		testExecutorBasics(t, ex, threads)
		ex.Close()
	}
	if _, err := NewSim(-1); err == nil {
		t.Error("expected error for negative threads")
	}
}

func TestPoolParallelSum(t *testing.T) {
	// A realistic reduction: workers sum disjoint strided slices.
	const n = 100000
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	for _, threads := range []int{1, 2, 3, 8} {
		ex, err := NewPool(threads)
		if err != nil {
			t.Fatal(err)
		}
		partials := make([]float64, threads*8) // padded slots
		for rep := 0; rep < 3; rep++ {
			ex.Run(RegionEvaluate, func(w int, ctx *WorkerCtx) {
				s := 0.0
				for i := strideFrom(0, w, threads); i < n; i += threads {
					s += data[i]
				}
				partials[w*8] = s
			})
			got := 0.0
			for w := 0; w < threads; w++ {
				got += partials[w*8]
			}
			want := float64(n) * float64(n-1) / 2
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("threads=%d: sum = %v, want %v", threads, got, want)
			}
		}
		ex.Close()
	}
}

func TestPoolCloseIdempotentAndPanicAfterClose(t *testing.T) {
	ex, _ := NewPool(2)
	ex.Close()
	ex.Close() // must not panic
	defer func() {
		if recover() == nil {
			t.Error("direct Run after Close should panic")
		}
	}()
	ex.Run(RegionOther, func(w int, ctx *WorkerCtx) {})
}

func TestPoolSessionDegradesAfterPoolClose(t *testing.T) {
	// A session caught mid-analysis by a pool teardown keeps working: its
	// regions run degraded (serially on the caller) with full worker
	// fan-out semantics and live statistics, instead of crashing.
	pool, _ := NewPool(2)
	sess := pool.Session()
	pool.Close()
	var touched int64
	sess.Run(RegionOther, func(w int, ctx *WorkerCtx) {
		atomic.AddInt64(&touched, 1)
		ctx.Ops = float64(w + 1)
	})
	if touched != 2 {
		t.Errorf("degraded region ran for %d workers, want 2", touched)
	}
	st := sess.Stats()
	if st.Regions != 1 || st.TotalOps != 3 {
		t.Errorf("degraded session stats: regions=%d totalOps=%v", st.Regions, st.TotalOps)
	}
}

// regionOf builds the per-worker scratch of one finished region from its op
// counts and (optionally) measured seconds.
func regionOf(ops, seconds []float64) []WorkerCtx {
	ctxs := make([]WorkerCtx, len(ops))
	for w := range ctxs {
		ctxs[w].Worker = w
		ctxs[w].Ops = ops[w]
		if seconds != nil {
			ctxs[w].Seconds = seconds[w]
		}
	}
	return ctxs
}

func TestStatsImbalance(t *testing.T) {
	var st Stats
	// Two regions with 4 workers: one perfectly balanced, one all-on-one.
	st.record(RegionNewview, regionOf([]float64{25, 25, 25, 25}, nil))
	if got := st.Imbalance(4); math.Abs(got-1) > 1e-12 {
		t.Errorf("balanced imbalance = %v, want 1", got)
	}
	st.record(RegionNewview, regionOf([]float64{100, 0, 0, 0}, []float64{1e-3, 0, 0, 0}))
	// critical = 125, ideal = 200/4 = 50 -> 2.5
	if got := st.Imbalance(4); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("imbalance = %v, want 2.5", got)
	}
	// Cumulative worker totals: 125, 25, 25, 25 -> max/avg = 125/50 = 2.5.
	if got := st.WorkerImbalance(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("worker imbalance = %v, want 2.5", got)
	}
	// All measured time landed on worker 0 -> time imbalance = max/avg = 4.
	if got := st.TimeImbalance(); math.Abs(got-4) > 1e-12 {
		t.Errorf("time imbalance = %v, want 4", got)
	}
	if st.TotalTime != 1e-3 || st.CriticalTime != 1e-3 || st.KindTime[RegionNewview] != 1e-3 {
		t.Errorf("time totals: total=%v critical=%v kind=%v", st.TotalTime, st.CriticalTime, st.KindTime[RegionNewview])
	}
	if st.Imbalance(0) != 1 {
		t.Error("degenerate imbalance should be 1")
	}
	st.Reset()
	if st.Regions != 0 || st.TotalOps != 0 || st.WorkerOps != nil || st.WorkerTime != nil || st.TotalTime != 0 {
		t.Error("Reset failed")
	}
	if st.WorkerImbalance() != 1 || st.TimeImbalance() != 1 {
		t.Error("empty stats imbalances should be 1")
	}
	if st.String() == "" {
		t.Error("String should render")
	}
}

// TestEmptyAssignmentWorkersRecordZeroOps is the regression test for runs
// with more workers than patterns: a worker whose schedule assignment is
// empty must enter the statistics with exactly zero ops — never a stale
// counter from a previous region — so it cannot skew the imbalance metrics.
func TestEmptyAssignmentWorkersRecordZeroOps(t *testing.T) {
	mk := func(name string, ex Executor) {
		t.Run(name, func(t *testing.T) {
			defer ex.Close()
			// Region 1: every worker busy (seeds nonzero Ops everywhere).
			ex.Run(RegionNewview, func(w int, ctx *WorkerCtx) { ctx.Ops += 100 })
			// Region 2: only workers 0 and 1 have an assignment.
			ex.Run(RegionEvaluate, func(w int, ctx *WorkerCtx) {
				if w < 2 {
					ctx.Ops += 40
				}
			})
			st := ex.Stats()
			T := ex.Threads()
			wantTotal := float64(100*T) + 80
			if st.TotalOps != wantTotal {
				t.Errorf("TotalOps = %v, want %v (stale ops leaked into the empty workers?)", st.TotalOps, wantTotal)
			}
			if st.CriticalOps != 140 {
				t.Errorf("CriticalOps = %v, want 140", st.CriticalOps)
			}
			for w := 2; w < T; w++ {
				if st.WorkerOps[w] != 100 {
					t.Errorf("worker %d cumulative ops = %v, want 100", w, st.WorkerOps[w])
				}
			}
			// Worker totals 140,140,100,...: max/avg must reflect the idle tail.
			avg := st.TotalOps / float64(T)
			want := 140 / avg
			if got := st.WorkerImbalance(); math.Abs(got-want) > 1e-12 {
				t.Errorf("WorkerImbalance = %v, want %v", got, want)
			}
		})
	}
	pool, err := NewPool(6)
	if err != nil {
		t.Fatal(err)
	}
	mk("pool", pool)
	sim, err := NewSim(6)
	if err != nil {
		t.Fatal(err)
	}
	mk("sim", sim)
}

func TestPlatformModel(t *testing.T) {
	for _, p := range Platforms {
		if p.PerOpNS(1) != p.SeqOpNS {
			t.Errorf("%s: PerOpNS(1) != SeqOpNS", p.Name)
		}
		if p.PerOpNS(8) <= p.PerOpNS(1) {
			t.Errorf("%s: per-op cost must grow with threads", p.Name)
		}
		if p.SyncNS(1) != 0 {
			t.Errorf("%s: sequential runs must pay no sync cost", p.Name)
		}
		if p.SyncNS(16) <= p.SyncNS(2) {
			t.Errorf("%s: sync cost must grow with threads", p.Name)
		}
	}
	// Paper's platform ordering: Nehalem sequential is fastest, ~40% faster
	// than Clovertown; AMD sequential is slower than Intel.
	if !(Nehalem.SeqOpNS < Clovertown.SeqOpNS) {
		t.Error("Nehalem must be faster than Clovertown sequentially")
	}
	ratio := Clovertown.SeqOpNS / Nehalem.SeqOpNS
	if ratio < 1.3 || ratio > 2.0 {
		t.Errorf("Clovertown/Nehalem sequential ratio %v outside plausible band", ratio)
	}
	if !(Barcelona.SeqOpNS > Clovertown.SeqOpNS && X4600.SeqOpNS > Nehalem.SeqOpNS) {
		t.Error("AMD platforms must be slower sequentially than Intel")
	}
	// Clovertown's bandwidth wall: at 8 threads its per-op inflation must
	// far exceed Nehalem's.
	if Clovertown.PerOpNS(8)/Clovertown.SeqOpNS < 1.5 {
		t.Error("Clovertown must be strongly bandwidth limited at 8 threads")
	}
	if Nehalem.PerOpNS(8)/Nehalem.SeqOpNS > 1.3 {
		t.Error("Nehalem must scale well to 8 threads")
	}
}

func TestPlatformEvalSeconds(t *testing.T) {
	var st Stats
	even := []float64{1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9}
	st.record(RegionNewview, regionOf(even, nil)) // 1e9 critical ops
	st.record(RegionEvaluate, regionOf(even, nil))
	p := Nehalem
	seq := p.EvalSeconds(&st, 1)
	want := p.SeqOpNS * 2e9 * 1e-9
	if math.Abs(seq-want) > 1e-9 {
		t.Errorf("sequential eval = %v, want %v", seq, want)
	}
	// With threads the same critical ops cost more per op plus sync.
	par := p.EvalSeconds(&st, 8)
	if par <= seq*1.01 {
		// same critical ops -> parallel pricing must include contention.
		t.Errorf("8-thread pricing of identical critical path should exceed sequential: %v vs %v", par, seq)
	}
	if _, err := PlatformByName("Nehalem"); err != nil {
		t.Error(err)
	}
	if _, err := PlatformByName("PDP11"); err == nil {
		t.Error("expected error for unknown platform")
	}
}

func TestSimMatchesPoolNumerically(t *testing.T) {
	// The same strided computation must produce identical results under Sim
	// and Pool (same worker decomposition).
	const n = 4321
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i))
	}
	run := func(ex Executor) float64 {
		threads := ex.Threads()
		partials := make([]float64, threads*8)
		ex.Run(RegionEvaluate, func(w int, ctx *WorkerCtx) {
			s := 0.0
			for i := strideFrom(0, w, threads); i < n; i += threads {
				s += data[i] * data[i]
			}
			partials[w*8] = s
		})
		total := 0.0
		for w := 0; w < threads; w++ {
			total += partials[w*8]
		}
		return total
	}
	sim, _ := NewSim(4)
	pool, _ := NewPool(4)
	defer pool.Close()
	if a, b := run(sim), run(pool); a != b {
		t.Errorf("Sim and Pool disagree: %v vs %v", a, b)
	}
}

func TestPoolSessionsIsolateStats(t *testing.T) {
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s1 := pool.Session()
	s2 := pool.Session()
	if s1.Threads() != 2 || s2.Threads() != 2 {
		t.Fatalf("session threads: %d, %d", s1.Threads(), s2.Threads())
	}
	s1.Run(RegionNewview, func(w int, ctx *WorkerCtx) { ctx.Ops = 1 })
	s1.Run(RegionEvaluate, func(w int, ctx *WorkerCtx) { ctx.Ops = 2 })
	s2.Run(RegionNewview, func(w int, ctx *WorkerCtx) { ctx.Ops = 3 })
	if got := s1.Stats().Regions; got != 2 {
		t.Errorf("session 1 regions = %d, want 2", got)
	}
	if got := s2.Stats().Regions; got != 1 {
		t.Errorf("session 2 regions = %d, want 1", got)
	}
	if got := s2.Stats().TotalOps; got != 6 {
		t.Errorf("session 2 total ops = %v, want 6", got)
	}
	// Session close is idempotent and leaves pool and sibling sessions alive.
	s2.Close()
	s2.Close()
	s1.Run(RegionOther, func(w int, ctx *WorkerCtx) { ctx.Ops = 1 })
	if got := s1.Stats().Regions; got != 3 {
		t.Errorf("session 1 after sibling close: regions = %d, want 3", got)
	}
}

func TestPoolConcurrentSessions(t *testing.T) {
	// Many sessions hammer one pool concurrently; regions serialize, so each
	// session's own computation and statistics must come out exactly as if
	// it ran alone. Run under -race in CI.
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const sessions = 8
	const regionsPer = 50
	var wg sync.WaitGroup
	sums := make([]float64, sessions)
	for s := 0; s < sessions; s++ {
		sess := pool.Session()
		wg.Add(1)
		go func(s int, sess *Pool) {
			defer wg.Done()
			defer sess.Close()
			acc := make([]float64, sess.Threads()*8) // padded per-worker cells
			for r := 0; r < regionsPer; r++ {
				sess.Run(RegionNewview, func(w int, ctx *WorkerCtx) {
					acc[w*8] += float64(s + r + w)
					ctx.Ops = float64(w + 1)
				})
			}
			for w := 0; w < sess.Threads(); w++ {
				sums[s] += acc[w*8]
			}
			if got := sess.Stats().Regions; got != regionsPer {
				t.Errorf("session %d regions = %d, want %d", s, got, regionsPer)
			}
		}(s, sess)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		want := 0.0
		for r := 0; r < regionsPer; r++ {
			for w := 0; w < 4; w++ {
				want += float64(s + r + w)
			}
		}
		if sums[s] != want {
			t.Errorf("session %d sum = %v, want %v", s, sums[s], want)
		}
	}
}

func TestPoolCloseIdempotentConcurrent(t *testing.T) {
	pool, err := NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); pool.Close() }()
	}
	wg.Wait()
	pool.Close() // and once more for good measure
}
