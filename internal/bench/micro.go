package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/obs"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

// MicrobenchObs optionally attaches observability to the kernel timing loop:
// the pool of each thread count reports region/worker/kernel families into
// Metrics and (when set) per-worker spans into Tracer. nil (or a nil-field
// struct) measures bare — the two are interchangeable by construction, since
// the flush-at-region-boundary collector adds no hot-path work; the CI
// allocs gate (core.TestMetricsZeroAllocsOnNewviewRegion) pins that claim.
type MicrobenchObs struct {
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// collector resolves the attachment to one RegionObserver (nil = none).
func (o *MicrobenchObs) collector(backend string, threads int) parallel.RegionObserver {
	if o == nil || (o.Metrics == nil && o.Tracer == nil) {
		return nil
	}
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return parallel.NewMetricsCollector(reg, "pool", backend, threads, o.Tracer)
}

// KernelTiming is the measured ns/op of the two hot kernels at one thread
// count: one full evaluate region at the canonical root, and one full
// newview traversal (every inner CLV recomputed).
type KernelTiming struct {
	Threads      int     `json:"threads"`
	EvaluateNsOp float64 `json:"evaluate_ns_op"`
	NewviewNsOp  float64 `json:"newview_ns_op"`
}

// TipCaseTiming compares the tip-specialized newview path against the fully
// generic kernels on a tip-heavy dataset (few taxa, so most newview children
// are tips and every worker share clears the lookup-table threshold) at one
// thread count.
type TipCaseTiming struct {
	Threads         int     `json:"threads"`
	SpecializedNsOp float64 `json:"specialized_ns_op"`
	GenericNsOp     float64 `json:"generic_ns_op"`
	Speedup         float64 `json:"speedup"`
}

// BackendTiming compares the fused kernel backend (cat-major CLV layout,
// unrolled 4-state kernels) against the generic pattern-major oracle on one
// full newview traversal of a DNA dataset deep enough that inner/inner
// P-matrix applications dominate, at one thread count.
type BackendTiming struct {
	Threads     int     `json:"threads"`
	GenericNsOp float64 `json:"generic_ns_op"`
	FusedNsOp   float64 `json:"fused_ns_op"`
	Speedup     float64 `json:"speedup"`
}

// MicrobenchReport is the machine-readable kernel benchmark summary the CI
// bench job serializes into BENCH_plk.json and holds to the intra-run floors
// of CheckReport. Its absolute ns/op are an artifact to read, not a gate:
// the end-to-end numbers that decide a change come from benchmark/.
type MicrobenchReport struct {
	Dataset    string `json:"dataset"`
	Taxa       int    `json:"taxa"`
	Sites      int    `json:"sites"`
	Partitions int    `json:"partitions"`
	Patterns   int    `json:"patterns"`
	// Backend is the resolved kernel backend the Timings ran under (the
	// session default: PLK_BACKEND or fused).
	Backend string `json:"backend,omitempty"`
	// DatasetBytes is the benchmark dataset's memory footprint (shared state
	// plus one session's buffers; see core.Shared.MemoryFootprint) — the
	// figure the serving layer's cache evicts against. Informational; never
	// gated.
	DatasetBytes int64          `json:"dataset_bytes,omitempty"`
	Timings      []KernelTiming `json:"timings"`
	// BackendDataset and BackendCase cover the generic-vs-fused newview
	// microbenchmark: same dataset, same schedule, both kernel backends on
	// the same commit. CheckReport enforces a speedup floor at one thread
	// (see backendSpeedupFloor).
	BackendDataset string          `json:"backend_dataset,omitempty"`
	BackendCase    []BackendTiming `json:"backend_case,omitempty"`
	// TipDataset and TipCase cover the tip-heavy newview microbenchmark:
	// specialized vs generic kernels on the same commit.
	TipDataset string          `json:"tip_dataset,omitempty"`
	TipCase    []TipCaseTiming `json:"tip_case,omitempty"`
	// Steal records the work-stealing microbenchmark on the honestly priced
	// small-grid workload: per-worker steal-count distribution and the
	// fraction of processed patterns that migrated, per thread count. On a
	// well-priced pack migration should be modest; CheckReport flags
	// >50% migration at thread counts the host can actually run in parallel
	// as a stealing pathology (the static pack is mispriced, not noisy).
	Steal []StealMicrobench `json:"steal,omitempty"`
	// StealComparison is the steal-vs-static end-state time-imbalance
	// comparison on the mispriced mixed workload (see StealComparison);
	// informational here, hard-gated by the bench acceptance test.
	StealComparison *StealComparison `json:"steal_comparison,omitempty"`
	// BootstrapDataset and Bootstrap cover the batched-bootstrap experiment:
	// replicates/sec of one R-wide batched session versus R independent
	// single-replicate sessions on the same dataset and topology.
	// CheckReport holds the batched-vs-independent speedup at one thread to
	// a floor (see bootstrapSpeedupFloor).
	BootstrapDataset string            `json:"bootstrap_dataset,omitempty"`
	Bootstrap        []BootstrapTiming `json:"bootstrap,omitempty"`
}

// StealMicrobench is the per-thread-count stealing fingerprint of the
// kernel microbenchmark workload (weighted schedule, honest analytic
// costs): how much work migrated and to whom.
type StealMicrobench struct {
	Threads int `json:"threads"`
	// Cores is runtime.NumCPU() at measurement time. With Threads > Cores
	// the workers time-share processors and migration is dominated by OS
	// scheduling, not by pack quality, so the pathology gate only fires for
	// Threads <= Cores.
	Cores             int       `json:"cores"`
	TimeImbalance     float64   `json:"time_imbalance"`
	StealCount        float64   `json:"steal_count"`
	StolenPatterns    float64   `json:"stolen_patterns"`
	ProcessedPatterns float64   `json:"processed_patterns"`
	MigratedFraction  float64   `json:"migrated_fraction"`
	WorkerSteals      []float64 `json:"worker_steals"`
}

// section selects parts of the microbenchmark. plkbench runs them all; the
// package's tests run the ones they assert on.
type section uint

const (
	secTimings section = 1 << iota
	secTipCase
	secBackend
	secSteal
	secBootstrap
	secStealComparison
	allSections section = 1<<iota - 1
)

// Microbench times the evaluate and newview kernels of a small-grid dataset
// (d20_20000 with 1000-column partitions at the given scale) on the real
// goroutine pool at each requested thread count. One immutable core.Shared
// is reused across sessions per thread count, exactly as the public
// Dataset/Analysis API does. Uses testing.Benchmark, so each timing is
// iterated until statistically stable. Cancelling ctx stops the run between
// sections (each individual timing is short); the error is ctx's. o attaches
// optional observability to the timing loop (nil = bare).
func Microbench(ctx context.Context, threadCounts []int, scale float64, seed int64, o *MicrobenchObs) (*MicrobenchReport, error) {
	return microbench(ctx, threadCounts, scale, seed, o, allSections)
}

func microbench(ctx context.Context, threadCounts []int, scale float64, seed int64, o *MicrobenchObs, run section) (*MicrobenchReport, error) {
	if len(threadCounts) == 0 {
		return nil, fmt.Errorf("bench: no thread counts")
	}
	for _, t := range threadCounts {
		if t < 1 {
			return nil, fmt.Errorf("bench: thread count %d must be positive", t)
		}
	}
	grid, err := newWorkload(20, 20000, 1000, scale, seed, seed+1)
	if err != nil {
		return nil, err
	}
	d := grid.data
	rep := &MicrobenchReport{
		Dataset:    grid.name,
		Taxa:       d.NumTaxa(),
		Sites:      d.TotalSites,
		Partitions: len(d.Parts),
		Patterns:   d.TotalPatterns,
	}
	sh, err := core.NewShared(d, 4, threadCounts[0])
	if err != nil {
		return nil, err
	}
	rep.Backend = sh.Backend.String()
	rep.DatasetBytes = sh.MemoryFootprint().TotalBytes()

	cfg := FigureConfig{Scale: scale, Seed: seed}
	for _, sec := range []struct {
		is  section
		run func() error
	}{
		{secTimings, func() error { return timingsBench(rep, grid, threadCounts, o) }},
		{secTipCase, func() error { return tipCaseBench(rep, threadCounts, seed) }},
		{secBackend, func() error { return backendBench(rep, threadCounts, seed) }},
		{secSteal, func() error { return stealBench(rep, grid, threadCounts) }},
		{secBootstrap, func() error { return bootstrapBench(rep, grid, threadCounts, seed) }},
		// Static weighted vs weighted+steal end-state time imbalance on the
		// mispriced mixed DNA+AA workload, at the caller's scale.
		{secStealComparison, func() (err error) {
			rep.StealComparison, _, err = stealComparisonRun(ctx, cfg)
			return err
		}},
	} {
		if run&sec.is == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sec.run(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// workload is one benchmark dataset: compressed, with its per-partition
// model templates and the seed of the tree every session over it scores.
type workload struct {
	name     string
	names    []string
	data     *alignment.CompressedData
	models   []*model.Model
	treeSeed int64
}

func newWorkload(taxa, sites, partLen int, scale float64, seed, treeSeed int64) (*workload, error) {
	ds, err := seqsim.GridDataset(taxa, sites, partLen, scale, seed)
	if err != nil {
		return nil, err
	}
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		return nil, err
	}
	models := make([]*model.Model, len(d.Parts))
	for i, p := range d.Parts {
		if models[i], err = model.DefaultFor(p, 4, 1.0); err != nil {
			return nil, err
		}
	}
	return &workload{name: ds.Name, names: ds.Alignment.Names, data: d, models: models, treeSeed: treeSeed}, nil
}

// rig is a workload set up on t goroutine workers the way the facade sets a
// Dataset up: one pool, one immutable core.Shared, and the tree its sessions
// score.
type rig struct {
	w    *workload
	pool *parallel.Pool
	sh   *core.Shared
	tr   *tree.Tree
}

// onPool builds a rig of t workers on the given kernel backend, runs body on
// it, and stops the workers.
func (w *workload) onPool(t int, backend core.Backend, body func(*rig) error) error {
	pool, err := parallel.NewPool(t)
	if err != nil {
		return err
	}
	defer pool.Close()
	sh, err := core.NewSharedWith(w.data, 4, t, backend)
	if err != nil {
		return err
	}
	tr, err := tree.Random(w.names, len(w.data.Parts), tree.RandomOptions{Seed: w.treeSeed})
	if err != nil {
		return err
	}
	return body(&rig{w: w, pool: pool, sh: sh, tr: tr})
}

// session opens one more session on the rig: own model copies, own view of
// the pool.
func (r *rig) session(opts core.Options) (*core.Engine, error) {
	ms := make([]*model.Model, len(r.w.models))
	for i, m := range r.w.models {
		ms[i] = m.Clone()
	}
	return core.NewSession(r.sh, r.tr, ms, r.pool.Session(), opts)
}

// newviewNsOp times one full newview traversal (every inner CLV recomputed)
// of a warmed session.
func newviewNsOp(eng *core.Engine) float64 {
	root := eng.Tree.Tips[0].Back
	return float64(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.InvalidateCLVs()
			eng.Traverse(root, false, nil)
		}
	}).NsPerOp())
}

// timingsBench fills rep.Timings: evaluate and newview ns/op of the grid
// workload at each thread count, observed by o when set.
func timingsBench(rep *MicrobenchReport, grid *workload, threadCounts []int, o *MicrobenchObs) error {
	for _, t := range threadCounts {
		err := grid.onPool(t, core.BackendAuto, func(r *rig) error {
			eng, err := r.session(core.Options{Specialize: true})
			if err != nil {
				return err
			}
			if c := o.collector(rep.Backend, t); c != nil {
				r.pool.SetObserver(c)
			}
			root := eng.Tree.Tips[0].Back
			eng.Traverse(root, false, nil) // warm the CLVs once
			evalRes := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng.Evaluate(root, nil)
				}
			})
			rep.Timings = append(rep.Timings, KernelTiming{
				Threads:      t,
				EvaluateNsOp: float64(evalRes.NsPerOp()),
				NewviewNsOp:  newviewNsOp(eng),
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// stealBench fingerprints the stealing runtime on the honestly priced
// small-grid dataset: a few full traversal+evaluate passes per thread count
// under weighted+steal, recording the per-worker steal distribution and the
// migrated pattern fraction that the CheckReport pathology gate inspects.
func stealBench(rep *MicrobenchReport, grid *workload, threadCounts []int) error {
	const passes = 4
	for _, t := range threadCounts {
		err := grid.onPool(t, core.BackendAuto, func(r *rig) error {
			eng, err := r.session(core.Options{Specialize: true, Schedule: schedule.Weighted, Steal: true})
			if err != nil {
				return err
			}
			root := eng.Tree.Tips[0].Back
			eng.Traverse(root, false, nil) // warm the CLVs and caches
			eng.Exec.Stats().Reset()
			for i := 0; i < passes; i++ {
				eng.InvalidateCLVs()
				eng.Traverse(root, false, nil)
				eng.Evaluate(root, nil)
			}
			st := eng.Exec.Stats()
			processed := probeProcessedPatterns(passes, grid.data.NumTaxa(), grid.data.TotalPatterns)
			sm := StealMicrobench{
				Threads:           t,
				Cores:             runtime.NumCPU(),
				TimeImbalance:     st.TimeImbalance(),
				StealCount:        st.StealCount,
				StolenPatterns:    st.StolenPatterns,
				ProcessedPatterns: processed,
				WorkerSteals:      append([]float64(nil), st.WorkerSteals...),
			}
			if processed > 0 {
				sm.MigratedFraction = sm.StolenPatterns / processed
			}
			rep.Steal = append(rep.Steal, sm)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// backendBench times one full newview traversal on a 4-state dataset under
// the generic (pattern-major oracle) and fused (cat-major, unrolled) kernel
// backends at each thread count. The dataset is fixed-size like the tip-case
// benchmark — large enough that the traversal is kernel-bound — and uses
// enough taxa that inner/inner P applications (the case the fused unrolling
// targets) carry roughly half the child slots of the traversal.
func backendBench(rep *MicrobenchReport, threadCounts []int, seed int64) error {
	const bTaxa, bSites = 48, 8192
	w, err := newWorkload(bTaxa, bSites, bSites, 1.0, seed+29, seed+1)
	if err != nil {
		return err
	}
	rep.BackendDataset = fmt.Sprintf("%s (%d patterns)", w.name, w.data.TotalPatterns)
	for _, t := range threadCounts {
		timing := BackendTiming{Threads: t}
		for _, backend := range []core.Backend{core.BackendGeneric, core.BackendFused} {
			err := w.onPool(t, backend, func(r *rig) error {
				eng, err := r.session(core.Options{Specialize: true})
				if err != nil {
					return err
				}
				eng.Traverse(eng.Tree.Tips[0].Back, false, nil)
				// Best of three: the speedup ratio feeds a CI floor (see
				// backendSpeedupFloor), so take the minimum ns/op of three
				// benchmark runs per backend — the standard robust estimator
				// against one-sided scheduler/frequency noise.
				best := 0.0
				for attempt := 0; attempt < 3; attempt++ {
					if ns := newviewNsOp(eng); best == 0 || ns < best {
						best = ns
					}
				}
				if backend == core.BackendFused {
					timing.FusedNsOp = best
				} else {
					timing.GenericNsOp = best
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		if timing.FusedNsOp > 0 {
			timing.Speedup = timing.GenericNsOp / timing.FusedNsOp
		}
		rep.BackendCase = append(rep.BackendCase, timing)
	}
	return nil
}

// tipCaseBench times one full newview traversal on a tip-heavy dataset (6
// taxa: 5 of the 8 child slots are tips) with the tip-case specialization on
// and off, at each thread count. The column count is fixed rather than
// scaled so every worker share stays above the lookup-table threshold — the
// point is to measure the table path, not the generic fallback.
func tipCaseBench(rep *MicrobenchReport, threadCounts []int, seed int64) error {
	const tipTaxa, tipSites = 6, 2048
	w, err := newWorkload(tipTaxa, tipSites, tipSites, 1.0, seed+17, seed+1)
	if err != nil {
		return err
	}
	rep.TipDataset = fmt.Sprintf("%s (tip-heavy, %d patterns)", w.name, w.data.TotalPatterns)
	for _, t := range threadCounts {
		timing := TipCaseTiming{Threads: t}
		for _, specialize := range []bool{true, false} {
			err := w.onPool(t, core.BackendAuto, func(r *rig) error {
				eng, err := r.session(core.Options{Specialize: specialize})
				if err != nil {
					return err
				}
				eng.Traverse(eng.Tree.Tips[0].Back, false, nil)
				if specialize {
					timing.SpecializedNsOp = newviewNsOp(eng)
				} else {
					timing.GenericNsOp = newviewNsOp(eng)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		if timing.SpecializedNsOp > 0 {
			timing.Speedup = timing.GenericNsOp / timing.SpecializedNsOp
		}
		rep.TipCase = append(rep.TipCase, timing)
	}
	return nil
}
