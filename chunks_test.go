package phylo

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestStealFacadeBitIdentityAndStats drives the chunk layout end to end
// through the public API. A result is a function of the schedule and the
// chunk layout only: runs at one MinChunk are bitwise equal on the real
// pool, run after run, and on the virtual executor, while different MinChunk
// runs regroup the per-chunk reductions and agree to reassociation tolerance.
// (The name predates the removal of work stealing; the steal toggle and its
// counters went with it.)
func TestStealFacadeBitIdentityAndStats(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(do DatasetOptions, minChunk int) float64 {
		do.Schedule = ScheduleWeighted
		do.MinChunk = minChunk
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
		lnl, err := an.OptimizeBranchLengths(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return lnl
	}

	lnlPool := run(DatasetOptions{Threads: 3}, 16)
	if again := run(DatasetOptions{Threads: 3}, 16); again != lnlPool {
		t.Errorf("identical pool runs differ: %v != %v", lnlPool, again)
	}
	if lnl := run(DatasetOptions{Threads: 3, VirtualThreads: true}, 16); lnl != lnlPool {
		t.Errorf("virtual executor: lnL %v != pool %v (must be bit-identical)", lnl, lnlPool)
	}
	lnlCoarse := run(DatasetOptions{Threads: 3}, 256)
	if diff := math.Abs(lnlCoarse - lnlPool); diff > 1e-9*math.Abs(lnlPool) {
		t.Errorf("MinChunk 256 lnL %v vs 16 %v (diff %v)", lnlCoarse, lnlPool, diff)
	}
	if lnl := run(DatasetOptions{Threads: 1}, 16); math.Abs(lnl-lnlPool) > 1e-9*math.Abs(lnlPool) {
		t.Errorf("one thread: lnL %v vs three %v", lnl, lnlPool)
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
	ds, err := NewDataset(al, DatasetOptions{Threads: 3, Schedule: ScheduleWeighted, MinChunk: 16})
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
// layout sessions walk at DatasetOptions.MinChunk — the layout and one
// evaluate and two derivative partials per chunk — not the default chunk
// size.
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
		want := l.MemoryBytes() + 3*8*int64(l.NumChunks())
		if got := ds.MemoryBreakdown().SessionChunks; got != want {
			t.Errorf("MinChunk %d: SessionChunks = %d, a session's layout and partials hold %d", minChunk, got, want)
		}
		return want
	}
	if small, dflt := chunks(16), chunks(0); small <= dflt {
		t.Errorf("16-pattern chunks priced %d B, no more than the default size's %d B", small, dflt)
	}
}
