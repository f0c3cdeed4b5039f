// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section V). A run executes a full
// analysis (model optimization on a fixed tree, or an ML tree search) on a
// generated dataset under a chosen parallelization strategy and thread
// count, using either the real goroutine pool (host wall-clock numbers) or
// the virtual-platform executor, whose recorded region trace is priced on
// the paper's four machines (see DESIGN.md substitution #1).
package bench

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/obs"
	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/search"
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

// Mode selects the analysis the paper benchmarks.
type Mode int

const (
	// ModeModelOpt optimizes ML model parameters on the fixed input tree
	// (no tree search).
	ModeModelOpt Mode = iota
	// ModeSearch runs the full ML tree search.
	ModeSearch
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeSearch {
		return "tree-search"
	}
	return "model-opt"
}

// Backend selects the executor.
type Backend int

const (
	// BackendSim runs T virtual workers serially and records the region
	// trace for platform pricing (identical numerics to a real pool).
	BackendSim Backend = iota
	// BackendPool runs a real goroutine pool and measures host wall-clock.
	BackendPool
)

// RunSpec describes one benchmark configuration.
type RunSpec struct {
	Dataset        *seqsim.Dataset
	Partitioned    bool // false collapses everything into one partition
	PerPartitionBL bool // per-partition vs joint branch-length estimate
	Strategy       opt.Strategy
	Schedule       schedule.Strategy // pattern-to-worker assignment (default Cyclic)
	Threads        int
	Mode           Mode
	Backend        Backend
	TreeSeed       int64 // fixed input tree (identical across configurations)
	SearchRounds   int   // SPR rounds for ModeSearch (0 = default)
	SearchRadius   int   // rearrangement radius (0 = default)
	OptimizeRates  bool  // include GTR rate optimization in ModeModelOpt

	// SkewCosts multiplies the analytic span cost of 4-state (DNA)
	// partitions by this factor before any schedule is built — a
	// deliberately *wrong* cost model for the steal experiment, which shows
	// stealing absorbing what a mispriced static pack leaves idle. 0 or 1
	// disables the skew. Runtime op counters are unaffected (they always
	// charge the true per-case costs), so Stats.WorkerImbalance() keeps
	// measuring the real work distribution.
	SkewCosts float64
	// ProbeRegions, when > 0, appends an end-state probe after the analysis:
	// this many full traversal+evaluate passes, whose measured balance
	// (Measurement.Probe) is free of the analysis's masked and partial regions.
	ProbeRegions int

	// Steal turns thieving on: workers that drain their scheduled share steal
	// the largest remaining half from the most loaded victim instead of
	// idling at each region barrier. Results are bit-for-bit identical to the
	// same run without it; Measurement.Probe carries the steal counters.
	Steal bool
	// MinChunk is the minimum chunk size in patterns (0 = the engine default
	// of 64).
	MinChunk int

	// KernelBackend selects the likelihood kernel backend (the CLV layout
	// and kernel bodies, see core.Backend — distinct from Backend above,
	// which picks the executor). The zero value resolves through PLK_BACKEND
	// to the fused default; results are bit-identical across backends.
	KernelBackend core.Backend
}

// Measurement is the outcome of one run. Stats is the analysis's op trace;
// its WorkerImbalance() is the load measure the schedule comparisons report.
type Measurement struct {
	Label           string
	LnL             float64
	WallSeconds     float64
	Stats           parallel.Stats
	Threads         int
	PlatformSeconds map[string]float64 // virtual seconds per paper platform
	Probe           Probe              // end-state probe (zero unless ProbeRegions > 0)
}

// Probe is what a metrics collector over a private registry recorded in one
// window: per-worker busy seconds and steals, and the patterns stolen.
type Probe struct {
	Busy, Steals []float64
	Stolen       float64
}

// BusyImbalance is max/avg of the per-worker busy seconds (1 if none).
func (p Probe) BusyImbalance() float64 {
	max, sum := 0.0, 0.0
	for _, b := range p.Busy {
		max, sum = math.Max(max, b), sum+b
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(p.Busy)))
}

// measure runs fn with a metrics collector over a private registry observing
// the workers of exec, and returns what the registry recorded.
func measure(exec *parallel.Pool, fn func()) Probe {
	reg := obs.NewRegistry()
	exec.SetObserver(parallel.NewMetricsCollector(reg, "probe", "", exec.Threads(), nil))
	defer exec.SetObserver(nil)
	fn()
	p := Probe{Stolen: reg.Counter("plk_stolen_patterns_total", "").Value()}
	for w := 0; w < exec.Threads(); w++ {
		wl := obs.Label{Key: "worker", Value: strconv.Itoa(w)}
		p.Busy = append(p.Busy, reg.Counter("plk_worker_busy_seconds_total", "", wl).Value())
		p.Steals = append(p.Steals, reg.Counter("plk_steals_total", "", wl).Value())
	}
	return p
}

// Run executes one configuration. ctx cancels the analysis at the next
// synchronization-region boundary; the returned Measurement then carries the
// partial result alongside ctx's error.
func Run(ctx context.Context, spec RunSpec) (*Measurement, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ds := spec.Dataset
	parts := ds.Parts
	if !spec.Partitioned {
		parts = alignment.SinglePartition(ds.Alignment, ds.Parts[0].Type, "all")
	}
	d, err := alignment.Compress(ds.Alignment, parts, alignment.CompressOptions{})
	if err != nil {
		return nil, err
	}
	models := make([]*model.Model, len(d.Parts))
	for i, p := range d.Parts {
		m, err := model.DefaultFor(p, 4, 1.0)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	zSlots := 1
	if spec.PerPartitionBL && len(d.Parts) > 1 {
		zSlots = len(d.Parts)
	}
	// The fixed input tree: the paper runs every configuration on the same
	// starting tree for reproducibility, so that oldPAR and newPAR perform
	// identical algorithmic work.
	tr, err := tree.Random(ds.Alignment.Names, zSlots, tree.RandomOptions{Seed: spec.TreeSeed})
	if err != nil {
		return nil, err
	}
	var exec *parallel.Pool
	switch spec.Backend {
	case BackendPool:
		exec, err = parallel.NewPool(spec.Threads)
	default:
		exec, err = parallel.NewSim(spec.Threads)
	}
	if err != nil {
		return nil, err
	}
	defer exec.Close()
	sh, err := core.NewSharedWith(d, models[0].NumCats, spec.Threads, spec.KernelBackend)
	if err != nil {
		return nil, err
	}
	if spec.SkewCosts > 0 && spec.SkewCosts != 1 {
		costs := sh.SpanCosts()
		for i, p := range d.Parts {
			if p.Type.States() == 4 {
				costs[i] *= spec.SkewCosts
			}
		}
		if err := sh.OverrideSpanCosts(costs); err != nil {
			return nil, err
		}
	}
	eng, err := core.NewSession(sh, tr, models, exec, core.Options{
		Specialize: true,
		Schedule:   spec.Schedule,
		Steal:      spec.Steal,
		MinChunk:   spec.MinChunk,
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	var lnl float64
	var runErr error
	switch spec.Mode {
	case ModeSearch:
		cfg := search.DefaultConfig(spec.Strategy)
		if spec.SearchRounds > 0 {
			cfg.MaxRounds = spec.SearchRounds
		}
		if spec.SearchRadius > 0 {
			cfg.Radius = spec.SearchRadius
		}
		var res search.Result
		res, runErr = search.New(eng, cfg).Run(ctx)
		lnl = res.LnL
	default:
		cfg := opt.DefaultConfig(spec.Strategy)
		cfg.OptimizeRates = spec.OptimizeRates
		lnl, _, runErr = opt.New(eng, cfg).OptimizeModel(ctx)
	}
	wall := time.Since(start).Seconds()

	m := &Measurement{
		Label:       fmt.Sprintf("%s %s/%s T=%d", ds.Name, spec.Strategy, spec.Schedule, spec.Threads),
		LnL:         lnl,
		WallSeconds: wall,
		Stats:       *exec.Stats(),
		Threads:     spec.Threads,
	}
	if spec.ProbeRegions > 0 && runErr == nil {
		exec.Stats().Reset() // m.Stats shares the per-worker op slice
		root := eng.Tree.Tips[0].Back
		m.Probe = measure(exec, func() {
			for i := 0; i < spec.ProbeRegions; i++ {
				eng.InvalidateCLVs()
				eng.Traverse(root, false, nil)
				eng.Evaluate(root, nil)
			}
		})
	}
	m.PlatformSeconds = make(map[string]float64, len(parallel.Platforms))
	for _, p := range parallel.Platforms {
		m.PlatformSeconds[p.Name] = p.EvalSeconds(&m.Stats, spec.Threads)
	}
	return m, runErr
}
