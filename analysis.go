package phylo

import (
	"context"
	"fmt"
	"math"
	"sync"

	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/search"
	"phylo/internal/tree"
)

// orBackground substitutes the background context for a nil one.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Phase identifies which long-running entry point emitted a ProgressEvent.
type Phase string

// Progress phases.
const (
	// PhaseModelOpt events stream from OptimizeModel, one per outer round.
	PhaseModelOpt Phase = "model-opt"
	// PhaseSearch events stream from Search, one per SPR round.
	PhaseSearch Phase = "search"
)

// ProgressEvent is one per-round snapshot of a long-running analysis,
// streamed through AnalysisOptions.Progress: what the round did — the phase,
// the round number, the current log likelihood, the cumulative SPR move
// counts (search only) and the synchronization regions this session issued
// so far. Load balance is read from Analysis.Stats, measured time and steals
// from the Dataset's metrics registry.
type ProgressEvent struct {
	// Phase names the entry point that produced the event (PhaseModelOpt,
	// PhaseSearch, or PhaseBootstrap).
	Phase Phase
	// Round is 1-based within the current entry point.
	Round int
	// LnL is the log likelihood after the round.
	LnL float64
	// MovesApplied and MovesTried accumulate over the search (zero during
	// model optimization).
	MovesApplied, MovesTried int
	// Regions is this session's synchronization-region count so far.
	Regions int64
}

// AnalysisOptions configures one analysis session over a Dataset. Only
// mutable per-session choices live here; anything the precomputed shared
// state depends on (threads, schedule, Gamma categories) is fixed in
// DatasetOptions.
type AnalysisOptions struct {
	// Strategy selects oldPAR or newPAR (default NewPar).
	Strategy Strategy
	// PerPartitionBranchLengths estimates a separate branch length per
	// partition (the paper's hardest, most important case); false uses a
	// joint estimate across partitions.
	PerPartitionBranchLengths bool
	// StartTreeNewick fixes the starting topology; empty generates a random
	// tree from Seed (the paper's "fixed input tree for reproducibility").
	StartTreeNewick string
	// Seed drives random-tree generation (default 1).
	Seed int64
	// Progress, if non-nil, receives one ProgressEvent per optimizer or
	// search round. It is called on the analysing goroutine between
	// parallel regions: keep it fast and do not call back into the session.
	Progress func(ProgressEvent)
	// MinChunk is the minimum chunk size in alignment patterns (0 selects the
	// default of 64). Chunks are the unit a session's workers drain their
	// pattern shares in, the unit thieves take on a Steal-enabled Dataset —
	// smaller chunks bound tail latency tighter but migrate more per-span
	// setup work — and the unit likelihood sums are grouped by, so sessions
	// agree bit for bit at equal MinChunk and to floating-point reassociation
	// tolerance otherwise.
	MinChunk int
}

// Analysis is one live likelihood session over a Dataset. It owns only the
// mutable state — the tree and its own copies of the model parameters, built
// fresh, plus the conditional likelihood vectors and per-worker scratch,
// which it holds from NewAnalysis to Close and then hands to the Dataset's
// next session — and borrows everything else (patterns, schedules, the
// worker pool) read-only from the Dataset, so sessions are cheap and any
// number may run concurrently.
//
// An Analysis is a single-session object: its methods must not be called
// concurrently with each other. Concurrency happens across sessions.
type Analysis struct {
	ds *Dataset

	eng      *core.Engine
	exec     parallel.Executor
	tr       *tree.Tree
	strategy Strategy
	progress func(ProgressEvent)

	mu     sync.Mutex
	closed bool
}

// NewAnalysis opens a new analysis session: it clones the dataset's model
// templates, builds the starting tree, takes the likelihood buffers of a
// closed session of this Dataset (allocating them when there are none), and
// opens its own view of the dataset's workers. Sessions over one Dataset may
// run concurrently; with identical options they produce bit-identical
// results, whatever ran in their buffers before.
func (ds *Dataset) NewAnalysis(o AnalysisOptions) (*Analysis, error) {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil, ErrDatasetClosed
	}
	ds.active++
	ds.mu.Unlock()
	an, err := ds.newAnalysis(o)
	if err != nil {
		ds.release()
		return nil, err
	}
	return an, nil
}

func (ds *Dataset) newAnalysis(o AnalysisOptions) (*Analysis, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	models := make([]*model.Model, len(ds.models))
	for i, m := range ds.models {
		models[i] = m.Clone()
	}
	zSlots := 1
	if o.PerPartitionBranchLengths && len(ds.data.Parts) > 1 {
		zSlots = len(ds.data.Parts)
	}
	var tr *tree.Tree
	var err error
	if o.StartTreeNewick != "" {
		tr, err = tree.ParseNewick(o.StartTreeNewick, ds.names, zSlots)
	} else {
		tr, err = tree.Random(ds.names, zSlots, tree.RandomOptions{Seed: o.Seed})
	}
	if err != nil {
		return nil, err
	}
	exec := ds.exec.Session()
	eng, err := core.NewSession(ds.shared, tr, models, exec, core.Options{
		Specialize: true,
		Schedule:   ds.opts.Schedule,
		Steal:      ds.opts.Steal,
		MinChunk:   o.MinChunk,
		Metrics:    ds.opts.Metrics,
	})
	if err != nil {
		exec.Close()
		return nil, err
	}
	return &Analysis{
		ds:       ds,
		eng:      eng,
		exec:     exec,
		tr:       tr,
		strategy: o.Strategy,
		progress: o.Progress,
	}, nil
}

// Close releases the session's executor (its view of the shared pool; the
// pool itself stays up for other sessions) and then returns its likelihood
// buffers to the Dataset for the next session — which is why a long-lived
// caller should Close every session rather than drop it. It is idempotent;
// every method called afterwards returns ErrAnalysisClosed (or NaN where the
// signature has no error). Like every Analysis method it must not run
// concurrently with another method of the same session.
func (an *Analysis) Close() error {
	an.mu.Lock()
	if an.closed {
		an.mu.Unlock()
		return nil
	}
	an.closed = true
	an.mu.Unlock()
	an.exec.Close()
	an.eng.Release()
	an.ds.release()
	return nil
}

// guard returns the appropriate error if this session or its dataset has
// been closed.
func (an *Analysis) guard() error {
	an.mu.Lock()
	closed := an.closed
	an.mu.Unlock()
	if closed {
		return ErrAnalysisClosed
	}
	if an.ds.isClosed() {
		return ErrDatasetClosed
	}
	return nil
}

// LogLikelihood evaluates the current tree and model. After Close it
// returns NaN (the signature carries no error; see Err-returning methods).
func (an *Analysis) LogLikelihood() float64 {
	if an.guard() != nil {
		return math.NaN()
	}
	return an.eng.LogLikelihood()
}

// PartitionLogLikelihoods returns the total and per-partition scores
// (NaN and nil after Close).
func (an *Analysis) PartitionLogLikelihoods() (float64, []float64) {
	if an.guard() != nil {
		return math.NaN(), nil
	}
	return an.eng.PartitionLogLikelihoods()
}

// optConfig assembles the optimizer configuration, wiring the session's
// progress stream in.
func (an *Analysis) optConfig() opt.Config {
	cfg := opt.DefaultConfig(an.strategy)
	if an.progress != nil {
		cfg.Progress = func(round int, lnl float64) {
			an.emit(ProgressEvent{Phase: PhaseModelOpt, Round: round, LnL: lnl})
		}
	}
	return cfg
}

// emit fills in the region count and delivers one progress event.
func (an *Analysis) emit(ev ProgressEvent) {
	ev.Regions = an.exec.Stats().Regions
	an.progress(ev)
}

// OptimizeModel optimizes branch lengths, alpha shape parameters, and GTR
// rates on the fixed current topology (the paper's "model parameter
// optimization" phase) and returns the final log likelihood. Cancelling ctx
// stops the optimization at the next synchronization-region boundary and
// returns the context's error together with the exact score of the
// partially optimized (fully consistent) state; so does a substitution model
// that refuses a proposed parameter value (a failed eigendecomposition), with
// that error.
func (an *Analysis) OptimizeModel(ctx context.Context) (float64, error) {
	ctx = orBackground(ctx)
	if err := an.guard(); err != nil {
		return math.NaN(), err
	}
	o := opt.New(an.eng, an.optConfig())
	lnl, _, err := o.OptimizeModel(ctx)
	if err != nil {
		return lnl, err
	}
	return lnl, core.CheckFinite(lnl)
}

// OptimizeBranchLengths runs branch-length smoothing only.
func (an *Analysis) OptimizeBranchLengths(ctx context.Context) (float64, error) {
	ctx = orBackground(ctx)
	if err := an.guard(); err != nil {
		return math.NaN(), err
	}
	o := opt.New(an.eng, an.optConfig())
	lnl, err := o.SmoothAll(ctx)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return lnl, err
	}
	return lnl, core.CheckFinite(lnl)
}

// SearchResult reports an SPR search.
type SearchResult struct {
	// LnL is the final log likelihood of the best tree found.
	LnL float64
	// Rounds is the number of SPR rounds actually run.
	Rounds int
	// MovesApplied and MovesTried count the accepted and the evaluated SPR
	// rearrangements over the whole search.
	MovesApplied, MovesTried int
}

// SearchOptions tunes Search; zero values select defaults.
type SearchOptions struct {
	// MaxRounds caps the number of SPR improvement rounds (default 5).
	MaxRounds int
	// Radius bounds how far a pruned subtree may be reinserted from its
	// original position, in edges (default 5).
	Radius int
}

// Search runs the SPR maximum-likelihood tree search with default settings.
func (an *Analysis) Search(ctx context.Context) (SearchResult, error) {
	return an.SearchWith(ctx, SearchOptions{})
}

// SearchWith runs the SPR search with explicit settings. Cancelling ctx
// stops the search at the next synchronization-region boundary: any pruned
// subtree is restored, the tree re-smoothed, and the returned SearchResult
// holds the exact score of that consistent partial result alongside the
// context's error — the session remains fully usable.
func (an *Analysis) SearchWith(ctx context.Context, so SearchOptions) (SearchResult, error) {
	ctx = orBackground(ctx)
	if err := an.guard(); err != nil {
		return SearchResult{LnL: math.NaN()}, err
	}
	cfg := search.DefaultConfig(an.strategy)
	if so.MaxRounds > 0 {
		cfg.MaxRounds = so.MaxRounds
	}
	if so.Radius > 0 {
		cfg.Radius = so.Radius
	}
	if an.progress != nil {
		cfg.Progress = func(round int, lnl float64, applied, tried int) {
			an.emit(ProgressEvent{Phase: PhaseSearch, Round: round, LnL: lnl,
				MovesApplied: applied, MovesTried: tried})
		}
	}
	res, runErr := search.New(an.eng, cfg).Run(ctx)
	out := SearchResult{LnL: res.LnL, Rounds: res.Rounds, MovesApplied: res.MovesApplied, MovesTried: res.MovesTried}
	if runErr != nil {
		return out, runErr
	}
	return out, core.CheckFinite(res.LnL)
}

// TreeNewick serializes the current tree with the branch lengths of slot 0
// — the joint estimate, or partition 0's lengths when per-partition branch
// lengths are enabled. Use TreeNewickForPartition for the other slots.
func (an *Analysis) TreeNewick() string {
	if an.guard() != nil {
		return ""
	}
	return tree.WriteNewick(an.tr, 0)
}

// TreeNewickForPartition serializes the current tree with partition k's
// branch lengths. With a joint branch-length estimate every partition shares
// slot 0, so all k return the same string.
func (an *Analysis) TreeNewickForPartition(k int) (string, error) {
	if err := an.guard(); err != nil {
		return "", err
	}
	if k < 0 || k >= an.eng.NumPartitions() {
		return "", fmt.Errorf("phylo: partition %d out of range", k)
	}
	return tree.WriteNewick(an.tr, an.eng.BranchSlot(k)), nil
}

// SetAlpha overrides the Gamma shape parameter of one partition (or of every
// partition when partition is negative) and invalidates the session's CLVs so
// the next evaluation reflects the new rates. It is the "model" knob of an
// evaluate request in the serving layer: a session opened from the dataset's
// model templates can be repointed at a caller-specified alpha without
// running the optimizer. Like every Analysis method it must not be called
// concurrently with another method of the same session.
func (an *Analysis) SetAlpha(partition int, alpha float64) error {
	if err := an.guard(); err != nil {
		return err
	}
	if partition >= an.eng.NumPartitions() {
		return fmt.Errorf("phylo: partition %d out of range", partition)
	}
	lo, hi := partition, partition+1
	if partition < 0 {
		lo, hi = 0, an.eng.NumPartitions()
	}
	for k := lo; k < hi; k++ {
		if err := an.eng.Models[k].SetAlpha(alpha); err != nil {
			return err
		}
	}
	an.eng.InvalidateCLVs()
	return nil
}

// Alpha returns the optimized Gamma shape parameter of a partition.
func (an *Analysis) Alpha(partition int) (float64, error) {
	if err := an.guard(); err != nil {
		return 0, err
	}
	if partition < 0 || partition >= an.eng.NumPartitions() {
		return 0, fmt.Errorf("phylo: partition %d out of range", partition)
	}
	return an.eng.Models[partition].Alpha, nil
}

// SyncStats summarizes the parallel runtime behaviour of everything this
// session executed so far: the synchronization (region/barrier) count and
// the load imbalance of the critical path — the quantities the paper's
// analysis is about, in the analytic op model's units (the trace
// PlatformSeconds prices). Sessions sharing one pool each see only their own
// counters. What the host measured — per-worker busy and idle seconds,
// steals, migrated patterns — is recorded once, in the Dataset's metrics
// registry (DatasetOptions.Metrics).
type SyncStats struct {
	// Regions counts the synchronization regions (parallel barriers) this
	// session issued.
	Regions int64
	// CriticalOps and TotalOps are the cumulative per-region maximum worker
	// load and the cumulative total load, in analytic op-model units.
	CriticalOps, TotalOps float64
	// Imbalance is the cumulative region-level critical-path ratio:
	// CriticalOps divided by TotalOps/Workers (1.0 = perfectly balanced).
	Imbalance float64
	// WorkerImbalance is the max/avg ratio of cumulative per-worker op totals
	// across the whole run — the direct measure of how well the schedule's
	// pattern assignment balanced the work, priced by the analytic op model.
	WorkerImbalance float64
}

// Stats returns the session's accumulated parallel runtime statistics
// (the zero SyncStats after Close).
func (an *Analysis) Stats() SyncStats {
	if an.guard() != nil {
		return SyncStats{}
	}
	s := an.exec.Stats()
	return SyncStats{
		Regions:         s.Regions,
		CriticalOps:     s.CriticalOps,
		TotalOps:        s.TotalOps,
		Imbalance:       s.Imbalance(an.exec.Threads()),
		WorkerImbalance: s.WorkerImbalance(),
	}
}

// PlatformSeconds prices the session's recorded execution trace on one of
// the paper's four platforms ("Nehalem", "Clovertown", "Barcelona",
// "x4600") at the dataset's thread count. Most meaningful with
// VirtualThreads enabled.
func (an *Analysis) PlatformSeconds(platform string) (float64, error) {
	if err := an.guard(); err != nil {
		return 0, err
	}
	p, err := parallel.PlatformByName(platform)
	if err != nil {
		return 0, err
	}
	return p.EvalSeconds(an.exec.Stats(), an.exec.Threads()), nil
}
