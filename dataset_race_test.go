package phylo

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
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
		ds, err := NewDataset(al, DatasetOptions{Threads: 2, Schedule: ScheduleWeighted})
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
		"real workers":    {Threads: 4, Schedule: ScheduleWeighted},
		"virtual threads": {Threads: 4, Schedule: ScheduleWeighted, VirtualThreads: true},
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

// TestSessionRecyclingSoak is the daemon's evaluate traffic in miniature,
// under the race detector: several goroutines each open a session, score a
// tree and close, so buffer sets keep changing hands between goroutines and
// trees, while the dataset is closed under them at a random point (the
// cache's eviction path). Every score must equal, bit for bit, what a lone
// session on a fresh dataset computes for that tree; the only other outcomes
// are the documented ones of a closed dataset — ErrDatasetClosed from
// NewAnalysis, NaN from LogLikelihood.
func TestSessionRecyclingSoak(t *testing.T) {
	al, err := SimulateMixed(8, 3, 1, 40, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := DatasetOptions{Threads: 2, Schedule: ScheduleWeighted}
	type request struct {
		seed    int64
		perPart bool
	}
	score := func(ds *Dataset, q request) (float64, error) {
		an, err := ds.NewAnalysis(AnalysisOptions{Seed: q.seed, PerPartitionBranchLengths: q.perPart})
		if err != nil {
			return 0, err
		}
		defer an.Close()
		return an.LogLikelihood(), nil
	}
	requests := []request{{1, false}, {2, true}, {3, false}, {4, true}, {5, false}}
	want := make([]uint64, len(requests))
	for i, q := range requests {
		ds, err := NewDataset(al, opts)
		if err != nil {
			t.Fatal(err)
		}
		lnl, err := score(ds, q)
		if err != nil || math.IsNaN(lnl) {
			t.Fatalf("lone run %d: lnL %v, err %v", i, lnl, err)
		}
		want[i] = math.Float64bits(lnl)
		ds.Close()
	}

	const goroutines, rounds = 4, 20
	for iter := 0; iter < 6; iter++ {
		ds, err := NewDataset(al, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Iterations 0..4 close the dataset after that share of the traffic;
		// the last lets every session run on a live dataset.
		closeAt := int64(goroutines * rounds * (iter + 1) / 6)
		var done atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					k := (g + r) % len(requests)
					lnl, err := score(ds, requests[k])
					switch {
					case err != nil:
						if !errors.Is(err, ErrDatasetClosed) {
							t.Errorf("NewAnalysis: %v", err)
						}
					case math.IsNaN(lnl):
						if !ds.isClosed() {
							t.Errorf("request %d scored NaN on a live dataset", k)
						}
					case math.Float64bits(lnl) != want[k]:
						t.Errorf("request %d scored %v in traffic, %v alone", k, lnl, math.Float64frombits(want[k]))
					}
					if done.Add(1) == closeAt && iter < 5 {
						if err := ds.Close(); err != nil && !strings.Contains(err.Error(), "session(s) still open") {
							t.Errorf("Close: %v", err)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		ds.Close()
	}
}
