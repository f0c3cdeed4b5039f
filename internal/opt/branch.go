package opt

import (
	"context"
	"fmt"
	"math"

	"phylo/internal/core"
	"phylo/internal/numeric"
	"phylo/internal/tree"
)

// Convergence control of the branch-length optimizer (RAxML-like defaults).
const (
	// branchTol is the relative step tolerance of one Newton iteration.
	branchTol = 1e-6
	// maxNewtonIter caps the Newton iterations of one unknown.
	maxNewtonIter = 64
	// smoothPasses caps the branch-smoothing sweeps over the whole tree.
	smoothPasses = 16
)

// Optimizer drives branch-length and model-parameter optimization over one
// engine.
type Optimizer struct {
	E   *core.Engine
	Cfg Config

	// ctx is the cancellation context bound by the last top-level entry
	// point (OptimizeModel, SmoothAll); the iterative loops poll it at
	// synchronization-region boundaries and wind down promptly when it is
	// cancelled, always leaving the tree and models in a consistent state.
	ctx context.Context

	// What the two loops run over, fixed for the optimizer's life: the
	// branch-length optimizer's groups, and the model parameters with theirs.
	blGroups [][]int
	alpha    brentParam
	rates    []brentParam // one per free exchangeability index

	// Scratch, indexed by partition: the loops allocate nothing of their own.
	x      []float64 // abscissae under evaluation (branch lengths, Brent proposals)
	d1, d2 []float64
	mask   []bool // the group's partitions that are still unconverged
	newts  []numeric.NewtonState
	brents []numeric.BrentState

	// score holds per-partition log likelihoods at the canonical root, as
	// SmoothAll's closing evaluation leaves them and every Brent solve keeps
	// them: its best-seen value inside a round, its closing pair elsewhere.
	// scored says they are those of the current tree and models, and is true
	// only while OptimizeModel runs the Brent solves of a round.
	score  []float64
	scored bool
}

// New creates an optimizer for the engine.
func New(e *core.Engine, cfg Config) *Optimizer {
	n := e.NumPartitions()
	o := &Optimizer{
		E:      e,
		Cfg:    cfg,
		x:      make([]float64, n),
		d1:     make([]float64, n),
		d2:     make([]float64, n),
		mask:   make([]bool, n),
		newts:  make([]numeric.NewtonState, n),
		brents: make([]numeric.BrentState, n),
		score:  make([]float64, n),
	}
	o.blGroups = o.groups(func(int) bool { return true }, !e.PerPartitionBL)
	o.alpha = o.alphaParam()
	for {
		par := o.rateParam(len(o.rates))
		if par.groups == nil {
			return o
		}
		o.rates = append(o.rates, par)
	}
}

// groups cuts the eligible partitions into the groups the lockstep loops
// run over, one after another, and is all there is to a strategy: oldPAR
// puts every partition in a group of its own, newPAR puts all of them in
// one. Partitions sharing a single unknown (a joint branch length) cannot be
// separated and always form one group. Every region a loop issues spans
// exactly the unconverged partitions of its group.
func (o *Optimizer) groups(eligible func(ip int) bool, oneUnknown bool) [][]int {
	all := make([]int, 0, o.E.NumPartitions())
	for ip := 0; ip < cap(all); ip++ {
		if eligible(ip) {
			all = append(all, ip)
		}
	}
	if len(all) == 0 {
		return nil
	}
	if oneUnknown || o.Cfg.Strategy == NewPar {
		return [][]int{all}
	}
	out := make([][]int, len(all))
	for i := range all {
		out[i] = all[i : i+1]
	}
	return out
}

// enter makes g the current group: exactly its partitions are unmasked.
func (o *Optimizer) enter(g []int) {
	for ip := range o.mask {
		o.mask[ip] = false
	}
	for _, ip := range g {
		o.mask[ip] = true
	}
}

// bind installs the cancellation context for subsequent loop checks (a nil
// ctx means "never cancelled") and, when Cfg.Weights is set, installs the
// replicate weight override on the engine so every region the optimizer
// issues scores the weighted objective (the shared-branch-length bootstrap
// mode; see Config.Weights). Weights the engine refuses (not width 1, or not
// the dataset's pattern count) are an error, and nothing is installed.
func (o *Optimizer) bind(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	o.ctx = ctx
	if o.Cfg.Weights != nil {
		if err := o.E.SetWeightOverride(o.Cfg.Weights); err != nil {
			return fmt.Errorf("opt: invalid Cfg.Weights: %w", err)
		}
	}
	return nil
}

// cancelled reports whether the bound context has been cancelled. It is
// polled between parallel regions, never inside one.
//
//plk:regionboundary
func (o *Optimizer) cancelled() bool {
	return o.ctx != nil && o.ctx.Err() != nil
}

// ctxErr returns the bound context's cancellation cause, or nil.
//
//plk:regionboundary
func (o *Optimizer) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

// OptimizeBranch optimizes the branch (p, p.Back) to its ML length(s) and
// returns the largest relative length change: one lockstep Newton-Raphson
// loop per partition group, the groups one after another. With per-partition
// branch lengths oldPAR therefore issues one narrow sumtable region plus one
// narrow derivative region per iteration *per partition*, and newPAR one
// full-width sumtable region plus one derivative region per lockstep
// iteration over all unconverged partitions — the same iterations, cut into
// regions differently. With a joint branch length there is one group either
// way, matching the paper's observation that joint-estimate analyses gain
// only ~5% (from the model parameters alone).
func (o *Optimizer) OptimizeBranch(p *tree.Node) float64 {
	if o.cancelled() {
		// Leave the branch as-is: no region is issued and the tree stays
		// exactly as the last completed iteration left it.
		return 0
	}
	// Lazily re-establish CLVs at both ends (the partial traversals that,
	// per the paper, touch 3-4 inner vectors on average during search).
	o.E.TraverseRoot(p, true, nil)
	maxDelta := 0.0
	for _, g := range o.blGroups {
		if o.cancelled() {
			break
		}
		maxDelta = math.Max(maxDelta, o.newtonGroup(p, g))
	}
	return maxDelta
}

// newtonGroup runs the paper's simultaneous Newton-Raphson on the branch at
// p over one partition group: one NewtonState per unknown advanced in
// lockstep, one derivative region per iteration, and the convergence boolean
// vector (the mask) shrinking that region as partitions finish. An unknown is
// a branch-length slot; under a joint estimate the whole group shares slot 0
// and that one state observes the group's summed derivatives.
func (o *Optimizer) newtonGroup(p *tree.Node, g []int) float64 {
	e := o.E
	o.enter(g)
	e.PrepareSumtable(p, o.mask)
	unknowns := g
	if !e.PerPartitionBL {
		unknowns = g[:1]
	}
	for _, ip := range unknowns {
		slot := e.BranchSlot(ip)
		o.newts[slot] = numeric.NewNewtonState(p.Z[slot], tree.MinBranchLen, tree.MaxBranchLen, branchTol)
	}
	remaining := len(unknowns)
	for it := 0; it < maxNewtonIter && remaining > 0 && !o.cancelled(); it++ {
		for _, ip := range g {
			o.x[ip] = o.newts[e.BranchSlot(ip)].Point()
		}
		e.BranchDerivatives(o.x, o.mask, o.d1, o.d2)
		if !e.PerPartitionBL {
			// Fixed ascending partition order keeps the sum reproducible.
			for _, ip := range g[1:] {
				o.d1[g[0]] += o.d1[ip]
				o.d2[g[0]] += o.d2[ip]
			}
		}
		for _, ip := range unknowns {
			st := &o.newts[e.BranchSlot(ip)]
			if !st.Converged && st.Observe(o.d1[ip], o.d2[ip]) {
				remaining--
				// The convergence boolean vector: retire the partition from
				// subsequent regions (unless the ablation keeps it in).
				if !o.Cfg.DisableConvergenceMask {
					o.mask[ip] = false
				}
			}
		}
	}
	maxDelta := 0.0
	for _, ip := range unknowns {
		slot := e.BranchSlot(ip)
		maxDelta = math.Max(maxDelta, relDelta(p.Z[slot], o.newts[slot].X))
		tree.SetBranchLength(p, slot, o.newts[slot].X)
	}
	return maxDelta
}

// SmoothAll sweeps branch optimization over every branch of the tree until
// the largest relative change in a pass falls below 10x branchTol or the
// pass budget is exhausted, then returns the resulting log likelihood (the
// RAxML treeEvaluate equivalent). If ctx is cancelled the sweep winds down
// at the next region boundary and the returned log likelihood is still the
// exact score of the tree in its current (partially smoothed, fully
// consistent) state. Invalid Cfg.Weights are an error before any region runs
// (the log likelihood is then NaN).
func (o *Optimizer) SmoothAll(ctx context.Context) (float64, error) {
	if err := o.bind(ctx); err != nil {
		return math.NaN(), err
	}
	e := o.E
	start := e.Tree.Tips[0].Back
	for pass := 0; pass < smoothPasses && !o.cancelled(); pass++ {
		maxDelta := o.smoothRec(start)
		if maxDelta < 10*branchTol {
			break
		}
	}
	if o.cancelled() {
		// The wind-down skipped trailing newviews, so discard all CLV
		// orientations and recompute from scratch: one extra full-width
		// region pair buys an exact score for the partially smoothed tree.
		e.InvalidateCLVs()
	}
	e.TraverseRoot(start, true, nil)
	lnl, per := e.Evaluate(start, nil)
	copy(o.score, per)
	return lnl, nil
}

// smoothRec optimizes the branch at p, then recursively all branches behind
// p.Back, restoring the upward CLV on exit so siblings and ancestors see
// fresh values (RAxML's smooth()).
func (o *Optimizer) smoothRec(p *tree.Node) float64 {
	maxDelta := o.OptimizeBranch(p)
	q := p.Back
	if q.IsTip() {
		return maxDelta
	}
	maxDelta = math.Max(maxDelta, o.smoothRec(q.Next.Back))
	maxDelta = math.Max(maxDelta, o.smoothRec(q.Next.Next.Back))
	if o.cancelled() {
		// Skip the trailing newview; SmoothAll's closing full traversal
		// re-establishes every CLV before the final evaluation.
		return maxDelta
	}
	// Restore the upward CLV at q with a single newview (RAxML's trailing
	// newviewGeneric); the children were just refreshed by the recursion.
	o.E.ExecuteSteps([]tree.TraversalStep{{P: q, Q: q.Next.Back, R: q.Next.Next.Back}}, nil)
	return maxDelta
}

func relDelta(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), 1e-8)
	return d / scale
}
