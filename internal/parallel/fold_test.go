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
	"phylo/internal/steal"
	"phylo/internal/tree"
)

// measuredFold is an independent fold of WorkerCtx's per-worker totals:
// busy seconds and weighted ops, each added region by region in worker
// order, starting from zero.
type measuredFold struct {
	busy, ops []float64
}

func (f *measuredFold) ObserveRegion(_ parallel.Region, _ time.Time, _ float64, ctxs []parallel.WorkerCtx) {
	for w := range ctxs {
		f.busy[w] += ctxs[w].Seconds
		f.ops[w] += ctxs[w].Ops
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
// every realisation of the executor and on an engine session over real
// goroutines.
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
	synthetic := func(_ *testing.T, ex *parallel.Pool) {
		sink := make([]float64, ex.Threads()*16) // padded per-worker sinks
		for r := 0; r < 6; r++ {
			ex.Run(parallel.Region(r%3), func(w int, ctx *parallel.WorkerCtx) {
				for i := 0; i < 3000*(w+1); i++ {
					sink[w*16] += float64(i % 7)
				}
				ctx.Ops += float64(3*w + r)
			})
		}
	}
	for _, tc := range []struct {
		name string
		exec *parallel.Pool
		via  *parallel.Pool // the view the observer is installed through
		run  func(*testing.T, *parallel.Pool)
	}{
		{"goroutines", pool, pool, synthetic},
		{"session", pool.Session(), pool, synthetic},
		{"virtual", sim, sim, synthetic},
		{"caller only", solo, solo, synthetic},
		{"engine session", pool.Session(), pool, engineSession(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			T := tc.exec.Threads()
			reg := obs.NewRegistry()
			fold := &measuredFold{busy: make([]float64, T), ops: make([]float64, T)}
			tc.via.SetObserver(tee{parallel.NewMetricsCollector(reg, "pool", "fused4", T, nil), fold})
			defer tc.via.SetObserver(nil)
			tc.run(t, tc.exec)
			for w := 0; w < T; w++ {
				busy := workerCounter(reg, "plk_worker_busy_seconds_total", w)
				ops := workerCounter(reg, "plk_worker_ops_total", w)
				if math.Float64bits(busy) != math.Float64bits(fold.busy[w]) {
					t.Errorf("worker %d: plk_worker_busy_seconds_total %v, fold %v", w, busy, fold.busy[w])
				}
				if math.Float64bits(ops) != math.Float64bits(fold.ops[w]) {
					t.Errorf("worker %d: plk_worker_ops_total %v, fold %v", w, ops, fold.ops[w])
				}
			}
			t.Logf("busy seconds %v, ops %v", fold.busy, fold.ops)
		})
	}
}

// engineSession returns a run of full traversal + evaluate passes on an
// engine session over a mixed DNA + protein dataset under the weighted pack
// at 16-pattern chunks.
func engineSession(t *testing.T) func(*testing.T, *parallel.Pool) {
	ds, err := seqsim.MixedDataset(10, 2, 1, 400, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := model.DefaultsFor(d.Parts, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T, ex *parallel.Pool) {
		sh, err := core.NewSharedWith(d, 4, ex.Threads(), core.BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := sh.ScheduleFor(schedule.Weighted)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tree.Random(ds.Alignment.Names, 1, tree.RandomOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewSession(sh, tr, models, ex,
			core.Options{Specialize: true, Layout: steal.NewLayout(sched, 16)})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Release()
		root := tr.Tips[0].Back
		for i := 0; i < 4; i++ {
			eng.InvalidateCLVs()
			eng.TraverseRoot(root, false, nil)
			eng.Evaluate(root, nil, nil, nil, nil)
		}
	}
}
