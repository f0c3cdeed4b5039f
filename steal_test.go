package phylo

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestStealFacadeBitIdentityAndStats drives work stealing end to end through
// the public API. A result is a function of the schedule and the chunk layout
// only: runs at one MinChunk are bitwise equal whether the Dataset steals or
// not, on the real pool, the virtual executor, and a single thread, while
// different MinChunk runs regroup the per-chunk reductions and agree to
// reassociation tolerance. Steal activity is measured, so it surfaces in the
// Dataset's metrics registry, and a non-steal dataset must record none.
func TestStealFacadeBitIdentityAndStats(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	// run returns the session's lnL and the steal operations and migrated
	// patterns its dataset's registry recorded.
	run := func(do DatasetOptions, minChunk int) (lnl, steals, stolen float64) {
		do.Schedule = ScheduleWeighted
		do.MinChunk = minChunk
		do.Metrics = NewMetricsRegistry()
		ds, err := NewDataset(al, do)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		an, err := ds.NewAnalysis(AnalysisOptions{Strategy: NewPar, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer an.Close()
		if lnl, err = an.OptimizeBranchLengths(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, s := range do.Metrics.Snapshot() {
			switch s.Name {
			case "plk_steals_total":
				steals += s.Value
			case "plk_stolen_patterns_total":
				stolen += s.Value
			}
		}
		return lnl, steals, stolen
	}

	lnlSteal, _, _ := run(DatasetOptions{Threads: 3, Steal: true}, 16)
	lnlSteal2, _, _ := run(DatasetOptions{Threads: 3, Steal: true}, 16)
	if lnlSteal != lnlSteal2 {
		t.Errorf("identical steal runs differ: %v != %v (stealing must not leak into results)", lnlSteal, lnlSteal2)
	}
	lnlCoarse, _, _ := run(DatasetOptions{Threads: 3, Steal: true}, 256)
	if diff := math.Abs(lnlCoarse - lnlSteal); diff > 1e-9*math.Abs(lnlSteal) {
		t.Errorf("MinChunk 256 lnL %v vs 16 %v (diff %v)", lnlCoarse, lnlSteal, diff)
	}
	lnlPlain, plainSteals, plainStolen := run(DatasetOptions{Threads: 3}, 16)
	if lnlPlain != lnlSteal {
		t.Errorf("pool: Steal:false lnL %v != Steal:true %v (must be bit-identical)", lnlPlain, lnlSteal)
	}
	for _, steal := range []bool{false, true} {
		if lnl, _, _ := run(DatasetOptions{Threads: 3, VirtualThreads: true, Steal: steal}, 16); lnl != lnlSteal {
			t.Errorf("virtual executor, Steal:%v: lnL %v != pool %v (must be bit-identical)", steal, lnl, lnlSteal)
		}
	}
	seqSteal, _, _ := run(DatasetOptions{Threads: 1, Steal: true}, 16)
	if seqPlain, _, _ := run(DatasetOptions{Threads: 1}, 16); seqPlain != seqSteal {
		t.Errorf("sequential: Steal:false lnL %v != Steal:true %v (must be bit-identical)", seqPlain, seqSteal)
	}
	if plainSteals != 0 || plainStolen != 0 {
		t.Errorf("non-steal dataset recorded %v steals, %v migrated patterns", plainSteals, plainStolen)
	}
}

// TestSessionsShareTheDatasetLayout: the pattern distribution is one value
// per Dataset. Concurrent analyses drain the very chunk layout NewDataset cut
// (pointer-equal, at its MinChunk) and score bit-identical log likelihoods.
func TestSessionsShareTheDatasetLayout(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{Threads: 3, Schedule: ScheduleWeighted, Steal: true, MinChunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := ds.layout.MinChunk(); got != 16 {
		t.Fatalf("dataset layout cut at %d patterns, want MinChunk 16", got)
	}
	const n = 2
	ans := make([]*Analysis, n)
	lnl := make([]float64, n)
	var wg sync.WaitGroup
	for i := range ans {
		if ans[i], err = ds.NewAnalysis(AnalysisOptions{Seed: 5}); err != nil {
			t.Fatal(err)
		}
		defer ans[i].Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lnl[i] = ans[i].LogLikelihood()
		}(i)
	}
	wg.Wait()
	for i, an := range ans {
		if an.eng.ChunkLayout() != ds.layout {
			t.Errorf("session %d drains its own chunk layout, not the dataset's", i)
		}
	}
	if math.Float64bits(lnl[0]) != math.Float64bits(lnl[1]) {
		t.Errorf("concurrent sessions of one dataset: lnL %v != %v", lnl[0], lnl[1])
	}
}

// TestMemoryBreakdownPricesTheDatasetChunkSize: the session-chunk term is the
// layout sessions drain at DatasetOptions.MinChunk — the layout, the runtime
// over it and one evaluate and two derivative partials per chunk — not the
// default chunk size.
func TestMemoryBreakdownPricesTheDatasetChunkSize(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	chunks := func(minChunk int) int64 {
		ds, err := NewDataset(al, DatasetOptions{Threads: 3, Schedule: ScheduleWeighted, MinChunk: minChunk})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		an, err := ds.NewAnalysis(AnalysisOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer an.Close()
		l := an.eng.ChunkLayout()
		want := l.MemoryBytes() + l.RuntimeBytes() + 3*8*int64(l.NumChunks())
		if got := ds.MemoryBreakdown().SessionChunks; got != want {
			t.Errorf("MinChunk %d: SessionChunks = %d, a session's layout, runtime and partials hold %d", minChunk, got, want)
		}
		return want
	}
	if small, dflt := chunks(16), chunks(0); small <= dflt {
		t.Errorf("16-pattern chunks priced %d B, no more than the default size's %d B", small, dflt)
	}
}
