package phylo

import (
	"context"
	"math"
	"testing"
)

// TestStealFacadeBitIdentityAndStats drives work stealing end to end through
// the public API. A result is a function of the schedule and the chunk layout
// only: runs at one MinChunk are bitwise equal whether the Dataset steals or
// not, on the real pool, the virtual executor, and a single thread, while
// different MinChunk runs regroup the per-chunk reductions and agree to
// reassociation tolerance. Steal activity must surface through SyncStats and
// ProgressEvent, and a non-steal dataset must report zero steal counters.
func TestStealFacadeBitIdentityAndStats(t *testing.T) {
	al, err := SimulateMixed(10, 3, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(do DatasetOptions, minChunk int) (float64, SyncStats, []ProgressEvent) {
		do.Schedule = ScheduleWeighted
		ds, err := NewDataset(al, do)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		var events []ProgressEvent
		an, err := ds.NewAnalysis(AnalysisOptions{
			Strategy: NewPar,
			Seed:     5,
			MinChunk: minChunk,
			Progress: func(ev ProgressEvent) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer an.Close()
		lnl, err := an.OptimizeBranchLengths(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return lnl, an.Stats(), events
	}

	lnlSteal, stSteal, _ := run(DatasetOptions{Threads: 3, Steal: true}, 16)
	lnlSteal2, stSteal2, _ := run(DatasetOptions{Threads: 3, Steal: true}, 16)
	if lnlSteal != lnlSteal2 {
		t.Errorf("identical steal runs differ: %v != %v (stealing must not leak into results)", lnlSteal, lnlSteal2)
	}
	lnlCoarse, _, _ := run(DatasetOptions{Threads: 3, Steal: true}, 256)
	if diff := math.Abs(lnlCoarse - lnlSteal); diff > 1e-9*math.Abs(lnlSteal) {
		t.Errorf("MinChunk 256 lnL %v vs 16 %v (diff %v)", lnlCoarse, lnlSteal, diff)
	}
	lnlPlain, stPlain, _ := run(DatasetOptions{Threads: 3}, 16)
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
	if stPlain.StealCount != 0 || stPlain.StolenPatterns != 0 {
		t.Errorf("non-steal dataset reported steal activity: %+v", stPlain)
	}
	if len(stSteal.WorkerSteals) == 0 && stSteal.StealCount > 0 {
		t.Errorf("steal counters present but per-worker distribution empty: %+v", stSteal)
	}
	// Steal totals must be consistent between the two identical runs' stats
	// shapes (activity itself is scheduling-dependent, so only invariants are
	// checked: totals equal the per-worker sums).
	for _, st := range []SyncStats{stSteal, stSteal2} {
		sum := 0.0
		for _, v := range st.WorkerSteals {
			sum += v
		}
		if math.Abs(sum-st.StealCount) > 1e-9 {
			t.Errorf("per-worker steals %v do not sum to total %v", sum, st.StealCount)
		}
	}
}

// TestStealProgressEventsCarryCounters checks the ProgressEvent plumbing on
// a steal-enabled weighted session: events stream with monotone steal
// counters.
func TestStealProgressEventsCarryCounters(t *testing.T) {
	al, err := SimulateMixed(8, 2, 1, 300, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{Threads: 3, Schedule: ScheduleWeighted, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var events []ProgressEvent
	an, err := ds.NewAnalysis(AnalysisOptions{
		Seed:     3,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if _, err := an.OptimizeModel(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	prev := -1.0
	for _, ev := range events {
		if ev.StealCount < prev {
			t.Errorf("steal counter regressed: %v after %v", ev.StealCount, prev)
		}
		prev = ev.StealCount
		if ev.StolenPatterns < 0 {
			t.Errorf("negative stolen patterns: %v", ev.StolenPatterns)
		}
	}
}
