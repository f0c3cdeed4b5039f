package parallel_test

import (
	"math"
	"strconv"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/obs"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

// measuredFold is an independent fold of the measured half of WorkerCtx:
// per-worker busy seconds (Seconds net of Idle, clamped at zero) and steal
// operations, and the stolen-pattern total, each added region by region in
// worker order, starting from zero.
type measuredFold struct {
	busy, steals []float64
	stolen       float64
}

func (f *measuredFold) ObserveRegion(_ parallel.Region, _ time.Time, _ float64, ctxs []parallel.WorkerCtx) {
	for w := range ctxs {
		c := &ctxs[w]
		busy := c.Seconds - c.Idle
		if busy < 0 {
			busy = 0
		}
		f.busy[w] += busy
		f.steals[w] += c.Steals
		f.stolen += c.StolenPatterns
	}
}

// tee hands every region to each observer in turn.
type tee []parallel.RegionObserver

func (t tee) ObserveRegion(kind parallel.Region, start time.Time, wall float64, ctxs []parallel.WorkerCtx) {
	for _, o := range t {
		o.ObserveRegion(kind, start, wall, ctxs)
	}
}

// workerCounter reads one worker's series of a per-worker counter family.
func workerCounter(reg *obs.Registry, name string, w int) float64 {
	return reg.Counter(name, "", obs.Label{Key: "worker", Value: strconv.Itoa(w)}).Value()
}

// TestRegistryHoldsTheMeasuredFold: the registry is the one record of what
// the host measured (Stats keeps only the op trace), so it must hold exactly
// the fold above — the same additions in the same order, bit for bit — on
// every realisation of the executor and on a steal-on engine session over
// real goroutines.
func TestRegistryHoldsTheMeasuredFold(t *testing.T) {
	pool, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sim, err := parallel.NewSim(3)
	if err != nil {
		t.Fatal(err)
	}
	solo := parallel.NewSequential()
	synthetic := func(_ *testing.T, ex parallel.Executor) {
		sink := make([]float64, ex.Threads()*16) // padded per-worker sinks
		for r := 0; r < 6; r++ {
			ex.Run(parallel.Region(r%3), func(w int, ctx *parallel.WorkerCtx) {
				for i := 0; i < 3000*(w+1); i++ {
					sink[w*16] += float64(i % 7)
				}
				ctx.Steals += float64(w * r)
				ctx.StolenPatterns += float64(3*w + r)
				if w == 0 && r == 2 {
					ctx.Idle = 1 // more than the region lasted: busy clamps at 0
				}
			})
		}
	}
	for _, tc := range []struct {
		name string
		exec *parallel.Pool
		via  *parallel.Pool // the view the observer is installed through
		run  func(*testing.T, parallel.Executor)
	}{
		{"goroutines", pool, pool, synthetic},
		{"session", pool.Session(), pool, synthetic},
		{"virtual", sim, sim, synthetic},
		{"caller only", solo, solo, synthetic},
		{"steal-on engine session", pool.Session(), pool, stealingSession(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			T := tc.exec.Threads()
			reg := obs.NewRegistry()
			fold := &measuredFold{busy: make([]float64, T), steals: make([]float64, T)}
			tc.via.SetObserver(tee{parallel.NewMetricsCollector(reg, "pool", "fused4", T, nil), fold})
			defer tc.via.SetObserver(nil)
			tc.run(t, tc.exec)
			for w := 0; w < T; w++ {
				busy := workerCounter(reg, "plk_worker_busy_seconds_total", w)
				steals := workerCounter(reg, "plk_steals_total", w)
				if math.Float64bits(busy) != math.Float64bits(fold.busy[w]) {
					t.Errorf("worker %d: plk_worker_busy_seconds_total %v, fold %v", w, busy, fold.busy[w])
				}
				if math.Float64bits(steals) != math.Float64bits(fold.steals[w]) {
					t.Errorf("worker %d: plk_steals_total %v, fold %v", w, steals, fold.steals[w])
				}
			}
			stolen := reg.Counter("plk_stolen_patterns_total", "").Value()
			if math.Float64bits(stolen) != math.Float64bits(fold.stolen) {
				t.Errorf("plk_stolen_patterns_total %v, fold %v", stolen, fold.stolen)
			}
			t.Logf("busy seconds %v, steals %v, stolen patterns %v", fold.busy, fold.steals, fold.stolen)
		})
	}
}

// stealingSession returns a run of full traversal + evaluate passes on a
// steal-on engine session over a mixed DNA + protein dataset whose weighted
// pack is mispriced 50x, so drained workers of a real pool have work to
// steal.
func stealingSession(t *testing.T) func(*testing.T, parallel.Executor) {
	ds, err := seqsim.MixedDataset(10, 2, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.Model, len(d.Parts))
	for i, p := range d.Parts {
		if models[i], err = model.DefaultFor(p, 4, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	return func(t *testing.T, ex parallel.Executor) {
		sh, err := core.NewSharedWith(d, 4, ex.Threads(), core.BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		costs := sh.SpanCosts()
		for i, p := range d.Parts {
			if p.Type == alignment.DNA {
				costs[i] *= 50
			}
		}
		if err := sh.OverrideSpanCosts(costs); err != nil {
			t.Fatal(err)
		}
		tr, err := tree.Random(ds.Alignment.Names, 1, tree.RandomOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewSession(sh, tr, models, ex,
			core.Options{Specialize: true, Schedule: schedule.Weighted, Steal: true, MinChunk: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Release()
		root := tr.Tips[0].Back
		for i := 0; i < 4; i++ {
			eng.InvalidateCLVs()
			eng.Traverse(root, false, nil)
			eng.Evaluate(root, nil)
		}
	}
}
