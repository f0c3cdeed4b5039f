package phylo

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"phylo/internal/steal"
)

// TestFacadeBitIdentityAcrossRunsAndExecutors drives the share layout end to
// end through the public API. A result is a function of the dataset's
// schedule only: runs are bitwise equal on the real pool, run after run, and
// on the virtual executor, and one thread (another schedule, so another
// grouping of the sums) agrees to reassociation tolerance. internal/core
// holds the same at the engine (TestBitIdentityAcrossExecutors).
func TestFacadeBitIdentityAcrossRunsAndExecutors(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(do DatasetOptions) float64 {
		do.Schedule = ScheduleWeighted
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

	lnlPool := run(DatasetOptions{Threads: 3})
	if again := run(DatasetOptions{Threads: 3}); again != lnlPool {
		t.Errorf("identical pool runs differ: %v != %v", lnlPool, again)
	}
	if lnl := run(DatasetOptions{Threads: 3, VirtualThreads: true}); lnl != lnlPool {
		t.Errorf("virtual executor: lnL %v != pool %v (must be bit-identical)", lnl, lnlPool)
	}
	if lnl := run(DatasetOptions{Threads: 1}); math.Abs(lnl-lnlPool) > 1e-9*math.Abs(lnlPool) {
		t.Errorf("one thread: lnL %v vs three %v", lnl, lnlPool)
	}
}

// TestSessionsShareTheDatasetLayout: the pattern distribution is one value
// per Dataset. Concurrent analyses drain the very share layout NewDataset
// listed (pointer-equal, and equal to its schedule's shares) and score
// bit-identical log likelihoods.
func TestSessionsShareTheDatasetLayout(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{Threads: 3, Schedule: ScheduleWeighted})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if want := steal.NewLayout(ds.layout.Schedule(), 0); !reflect.DeepEqual(ds.layout, want) {
		t.Fatalf("dataset layout lists %+v, its schedule's shares are %+v", ds.layout.Slots(), want.Slots())
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
		if an.eng.ShareLayout() != ds.layout {
			t.Errorf("session %d drains its own share layout, not the dataset's", i)
		}
	}
	if math.Float64bits(lnl[0]) != math.Float64bits(lnl[1]) {
		t.Errorf("concurrent sessions of one dataset: lnL %v != %v", lnl[0], lnl[1])
	}
}

// TestMemoryBreakdownPricesTheDatasetChunkSize: the session-share term is
// the layout sessions walk, the dataset's schedule's shares, and the one
// partial buffer at its widest width-1 use — three lanes a share, a
// derivative region's d1, d2 and lnL — for each of the schedules. (The name
// predates the removal of the chunks shares were cut into.)
func TestMemoryBreakdownPricesTheDatasetChunkSize(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []ScheduleStrategy{ScheduleCyclic, ScheduleWeighted} {
		ds, err := NewDataset(al, DatasetOptions{Threads: 3, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		l := steal.NewLayout(ds.layout.Schedule(), 0)
		want := l.MemoryBytes() + 3*8*int64(len(l.Slots()))
		if got := ds.MemoryBreakdown().SessionShares; got != want {
			t.Errorf("%v: SessionShares = %d, a session's layout and partial buffer hold %d", sched, got, want)
		}
		ds.Close()
	}
}
