package phylo

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestDatasetCloseRacesSessions hammers Dataset.Close against concurrent
// session traffic — NewAnalysis, LogLikelihood, Bootstrap, OptimizeModel —
// and checks the documented contract under the race detector: every call
// either succeeds normally or fails with ErrDatasetClosed/ErrAnalysisClosed;
// nothing panics, deadlocks, or returns a garbage error. This is the serving
// daemon's eviction path in miniature: the cache closes a dataset while
// late requests may still be opening sessions on it.
func TestDatasetCloseRacesSessions(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		al, err := SimulateGrid(8, 128, 128, 1.0, int64(iter+1))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewDataset(al, DatasetOptions{Threads: 2, Schedule: ScheduleWeighted, Steal: true})
		if err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		check := func(err error) {
			if err != nil && !errors.Is(err, ErrDatasetClosed) && !errors.Is(err, ErrAnalysisClosed) {
				t.Errorf("unexpected error under Close race: %v", err)
			}
		}

		// Session goroutines: open, evaluate, bootstrap, optimize, close.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				an, err := ds.NewAnalysis(AnalysisOptions{Seed: int64(g + 1)})
				if err != nil {
					check(err)
					return
				}
				defer an.Close()
				// LogLikelihood reports failure as NaN (the dataset may close
				// mid-flight); any finite value must be a real score.
				if lnl := an.LogLikelihood(); !math.IsNaN(lnl) && lnl >= 0 {
					t.Errorf("garbage lnL %v", lnl)
				}
				_, err = an.Bootstrap(context.Background(), 4, int64(g))
				check(err)
				_, err = an.OptimizeModel(context.Background())
				check(err)
			}(g)
		}

		// The closer: fires while the sessions are mid-flight. Close reports
		// still-open sessions as a documented diagnostic; anything else it
		// returns would be a bug.
		checkClose := func(err error) {
			if err != nil && !strings.Contains(err.Error(), "session(s) still open") {
				t.Errorf("unexpected Close error: %v", err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			checkClose(ds.Close())
		}()

		close(start)
		wg.Wait()
		checkClose(ds.Close()) // idempotent
	}
}

// TestSiblingSessionsCannotChangeResults pins the property the immutable
// schedule buys: what a session computes is a function of (data, options) and
// its own calls, never of what a sibling session over the same Dataset is
// doing at the time. Session A optimizes the model while B and C run
// bootstraps of different widths; A's log likelihood and B's and C's
// per-replicate scores must equal, bit for bit, what each computes alone.
// The shape is one where a weighted pack priced for 64 replicate lanes
// differs from the width-1 pack at 4 workers, so any cross-session repricing
// of the shared schedule regroups A's reductions mid-run and fails here.
func TestSiblingSessionsCannotChangeResults(t *testing.T) {
	al, err := SimulateMixed(6, 2, 1, 40, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	modelOpt := func(ds *Dataset) ([]float64, error) {
		an, err := ds.NewAnalysis(AnalysisOptions{Seed: 5})
		if err != nil {
			return nil, err
		}
		defer an.Close()
		lnl, err := an.OptimizeModel(ctx)
		return []float64{lnl}, err
	}
	bootstrap := func(replicates int) func(*Dataset) ([]float64, error) {
		return func(ds *Dataset) ([]float64, error) {
			an, err := ds.NewAnalysis(AnalysisOptions{Seed: 5})
			if err != nil {
				return nil, err
			}
			defer an.Close()
			res, err := an.Bootstrap(ctx, replicates, 9)
			if err != nil {
				return nil, err
			}
			return res.ReplicateLnL, nil
		}
	}
	sessions := []func(*Dataset) ([]float64, error){modelOpt, bootstrap(64), bootstrap(16)}
	for name, opts := range map[string]DatasetOptions{
		"real workers + steal": {Threads: 4, Schedule: ScheduleWeighted, Steal: true},
		"virtual threads":      {Threads: 4, Schedule: ScheduleWeighted, VirtualThreads: true},
	} {
		t.Run(name, func(t *testing.T) {
			ds, err := NewDataset(al, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			lone := make([][]float64, len(sessions))
			for i, run := range sessions {
				if lone[i], err = run(ds); err != nil {
					t.Fatal(err)
				}
			}
			together := make([][]float64, len(sessions))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, run := range sessions {
				wg.Add(1)
				go func(i int, run func(*Dataset) ([]float64, error)) {
					defer wg.Done()
					<-start
					var err error
					if together[i], err = run(ds); err != nil {
						t.Error(err)
					}
				}(i, run)
			}
			close(start)
			wg.Wait()
			for i := range sessions {
				if len(together[i]) != len(lone[i]) {
					t.Fatalf("session %d returned %d values, alone %d", i, len(together[i]), len(lone[i]))
				}
				for k := range lone[i] {
					if math.Float64bits(together[i][k]) != math.Float64bits(lone[i][k]) {
						t.Errorf("session %d value %d: %v beside its siblings, %v alone", i, k, together[i][k], lone[i][k])
					}
				}
			}
		})
	}
}

// TestConcurrentVirtualSessionsKeepPrivateStats runs N sessions at once over
// a one-thread dataset and over a virtual-threads dataset, both with a
// metrics registry: sessions of virtual workers share no lock and no scratch
// (the race detector checks that), each session's region count is its own,
// the registry — fed by the one observer the sessions share — counts the sum,
// and every session scores exactly what a lone session scores.
func TestConcurrentVirtualSessionsKeepPrivateStats(t *testing.T) {
	al, err := SimulateGrid(8, 256, 64, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// work optimizes branch lengths and then scores the optimum evals more
	// times, so sessions with different evals issue different region counts.
	work := func(ds *Dataset, evals int) (lnl float64, regions int64, err error) {
		an, err := ds.NewAnalysis(AnalysisOptions{Seed: 5})
		if err != nil {
			return 0, 0, err
		}
		defer an.Close()
		if lnl, err = an.OptimizeBranchLengths(context.Background()); err != nil {
			return 0, 0, err
		}
		for i := 0; i < evals; i++ {
			an.LogLikelihood()
		}
		return lnl, an.Stats().Regions, nil
	}
	for name, opts := range map[string]DatasetOptions{
		"one thread":      {Threads: 1},
		"virtual threads": {Threads: 3, VirtualThreads: true},
	} {
		t.Run(name, func(t *testing.T) {
			opts.Metrics = NewMetricsRegistry()
			ds, err := NewDataset(al, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			wantLnL, base, err := work(ds, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, plusOne, err := work(ds, 1)
			if err != nil {
				t.Fatal(err)
			}
			perEval := plusOne - base
			if base <= 0 || perEval <= 0 {
				t.Fatalf("lone sessions issued %d and %d regions", base, plusOne)
			}
			issued := base + plusOne

			const sessions = 6
			regions := make([]int64, sessions)
			var wg sync.WaitGroup
			for g := 0; g < sessions; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					lnl, n, err := work(ds, g)
					if err != nil {
						t.Error(err)
						return
					}
					regions[g] = n
					if math.Float64bits(lnl) != math.Float64bits(wantLnL) {
						t.Errorf("session %d lnL %v, lone session %v", g, lnl, wantLnL)
					}
					if want := base + int64(g)*perEval; n != want {
						t.Errorf("session %d counted %d regions, want its own %d", g, n, want)
					}
				}(g)
			}
			wg.Wait()
			for _, n := range regions {
				issued += n
			}
			total := 0.0
			for _, s := range opts.Metrics.Snapshot() {
				if s.Name == "plk_regions_total" {
					total += s.Value
				}
			}
			if total != float64(issued) {
				t.Errorf("registry plk_regions_total = %v, sessions issued %d", total, issued)
			}
		})
	}
}
