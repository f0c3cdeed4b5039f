package phylo

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// sessionBufferCounts reads plk_session_buffers_total by source.
func sessionBufferCounts(reg *MetricsRegistry) (recycled, allocated float64) {
	for _, s := range reg.Snapshot() {
		if s.Name != "plk_session_buffers_total" {
			continue
		}
		for _, l := range s.Labels {
			switch {
			case l.Key == "source" && l.Value == "recycled":
				recycled = s.Value
			case l.Key == "source" && l.Value == "allocated":
				allocated = s.Value
			}
		}
	}
	return recycled, allocated
}

// TestTenantsShareBuffersNotResults: sessions A, B, A in sequence on one
// Dataset pass one buffer set along (whenever sync.Pool keeps it; that it
// does is TestWarmSessionAllocBudget's business). B differs from A in everything a session
// can choose — tree, Gamma shape, per-partition branch lengths, and it
// optimizes branch lengths, so it leaves a used sumtable behind too — and A
// must still score, to the bit, what it scores on a Dataset nobody else used.
func TestTenantsShareBuffersNotResults(t *testing.T) {
	al, err := SimulateMixed(8, 3, 1, 40, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	tenantA := func(ds *Dataset) (float64, []float64) {
		an, err := ds.NewAnalysis(AnalysisOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer an.Close()
		return an.PartitionLogLikelihoods()
	}
	tenantB := func(ds *Dataset) {
		an, err := ds.NewAnalysis(AnalysisOptions{Seed: 9, PerPartitionBranchLengths: true})
		if err != nil {
			t.Fatal(err)
		}
		defer an.Close()
		if err := an.SetAlpha(-1, 0.3); err != nil {
			t.Fatal(err)
		}
		if _, err := an.OptimizeBranchLengths(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for name, opts := range map[string]DatasetOptions{
		"one thread":   {Threads: 1, Schedule: ScheduleWeighted},
		"real workers": {Threads: 3, Schedule: ScheduleWeighted},
	} {
		t.Run(name, func(t *testing.T) {
			lone, err := NewDataset(al, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer lone.Close()
			wantTotal, wantParts := tenantA(lone)

			opts.Metrics = NewMetricsRegistry()
			ds, err := NewDataset(al, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			for round, run := range []func(){nil, func() { tenantB(ds) }} {
				if run != nil {
					run()
				}
				total, parts := tenantA(ds)
				if math.Float64bits(total) != math.Float64bits(wantTotal) {
					t.Errorf("A, round %d: lnL %v, alone on a fresh dataset %v", round, total, wantTotal)
				}
				for i := range wantParts {
					if math.Float64bits(parts[i]) != math.Float64bits(wantParts[i]) {
						t.Errorf("A, round %d: partition %d lnL %v, alone %v", round, i, parts[i], wantParts[i])
					}
				}
			}
			recycled, allocated := sessionBufferCounts(ds.Metrics())
			if recycled+allocated != 3 || allocated < 1 {
				t.Errorf("plk_session_buffers_total: recycled %v + allocated %v, want 3 sessions, the first allocated", recycled, allocated)
			}
		})
	}
}

// TestAnalysisCloseReleasesOnce: Close is idempotent all the way down — a
// second Close must not park the buffer set a second time, or two later
// sessions would both receive it.
func TestAnalysisCloseReleasesOnce(t *testing.T) {
	al, err := SimulateGrid(8, 256, 64, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	ds, err := NewDataset(al, DatasetOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(AnalysisOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := an.LogLikelihood()
	an.Close()
	an.Close()

	var open []*Analysis
	for i := 0; i < 2; i++ {
		a, err := ds.NewAnalysis(AnalysisOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		open = append(open, a)
	}
	if recycled, _ := sessionBufferCounts(reg); recycled > 1 {
		t.Fatalf("%v sessions recycled the one closed session's buffers", recycled)
	}
	// Interleave the two live sessions: shared buffers would cross-talk.
	open[0].LogLikelihood()
	if err := open[1].SetAlpha(-1, 0.2); err != nil {
		t.Fatal(err)
	}
	open[1].LogLikelihood()
	if err := open[0].SetAlpha(0, 1.0); err != nil { // same value: only invalidates
		t.Fatal(err)
	}
	if got := open[0].LogLikelihood(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("lnL %v beside a sibling session, %v alone", got, want)
	}
}

// warmSessionCost opens a dataset over al and returns what one warm session
// (NewAnalysis + LogLikelihood + Close, after one session has parked its
// buffers) allocates, as bytes and allocations averaged over 50 sessions,
// with the dataset's buffer-set size.
func warmSessionCost(t *testing.T, al *Alignment, dsOpts DatasetOptions, anOpts AnalysisOptions) (bytes, allocs, setBytes uint64) {
	t.Helper()
	ds, err := NewDataset(al, dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	session := func(seed int64) {
		o := anOpts
		o.Seed = seed
		an, err := ds.NewAnalysis(o)
		if err != nil {
			t.Fatal(err)
		}
		if lnl := an.LogLikelihood(); math.IsNaN(lnl) {
			t.Fatal("NaN lnL")
		}
		an.Close()
	}
	// What is pinned is the cost of a session that finds a set parked, not
	// sync.Pool's retention policy, so rule out its two sources of misses: a
	// collection between a Close and the next NewAnalysis (two cycles empty a
	// pool), and this goroutine changing Ps in between (a set parked in one
	// P's private slot is invisible from another until that P has its own).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	session(1) // the dataset's first session allocates the set
	const sessions = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		session(int64(i + 2))
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / sessions, (after.Mallocs - before.Mallocs) / sessions,
		uint64(ds.MemoryBreakdown().SessionBytes())
}

// TestWarmSessionAllocBudget is the allocation gate of the recycled-buffer
// design, on the shape the plkd_evaluate benchmark serves (10 taxa, 20
// partitions of 50 columns, weighted schedule, one thread): once one session
// has been closed, NewAnalysis + LogLikelihood + Close allocates the tree,
// the model clones and the executor view — tens of KB — and not the 1.25 MB
// of CLVs, scaling vectors and sumtable it allocated when every session
// built its own.
func TestWarmSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const budget = 40 << 10
	al, err := SimulateGrid(10, 20000, 1000, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	perSession, _, setBytes := warmSessionCost(t, al, DatasetOptions{Schedule: ScheduleWeighted}, AnalysisOptions{})
	t.Logf("warm open + evaluate + close: %d B per session (one buffer set: %d B)", perSession, setBytes)
	if perSession > budget {
		t.Fatalf("a warm session allocates %d B, budget %d B", perSession, budget)
	}
}

// TestWarmEvaluateAllocs pins the allocation count of one evaluate, a warm
// open + LogLikelihood + Close on one thread: it builds a start tree and one
// copy per partition model and opens an executor view, each a few
// allocations, and nothing per branch, per model slice, per traversal step or
// per evaluate result. The shapes are p1000_newpar's (8 taxa, 10 partitions
// of 50 columns, per-partition branch lengths) and a small fused-backend
// grid of the same partition count.
func TestWarmEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, tc := range []struct {
		name           string
		sites, partLen int
		scale          float64
		ds             DatasetOptions
		an             AnalysisOptions
		budget         uint64
	}{
		{"p1000_newpar", 10000, 1000, 0.05, DatasetOptions{Threads: 1}, AnalysisOptions{PerPartitionBranchLengths: true}, 42},
		{"grid8_500_fused", 500, 50, 1.0, DatasetOptions{Threads: 1, Backend: BackendFused}, AnalysisOptions{}, 42},
	} {
		al, err := SimulateGrid(8, tc.sites, tc.partLen, tc.scale, 42)
		if err != nil {
			t.Fatal(err)
		}
		bytes, allocs, _ := warmSessionCost(t, al, tc.ds, tc.an)
		t.Logf("%s: warm evaluate: %d allocations, %d B per session", tc.name, allocs, bytes)
		if allocs > tc.budget {
			t.Errorf("%s: a warm evaluate makes %d allocations, budget %d", tc.name, allocs, tc.budget)
		}
	}
}
