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
	per    []float64 // a Brent step's per-partition log likelihoods
	mask   []bool    // the group's partitions that are still unconverged
	newts  []numeric.NewtonState
	brents []numeric.BrentState

	// score holds per-partition log likelihoods at the canonical root, as
	// SmoothAll's closing evaluation leaves them and every Brent solve keeps
	// them: its best-seen value, or its closing region's.
	score []float64
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
		per:    make([]float64, n),
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
// ctx means "never cancelled") once Cfg.Weights, which every region the
// optimizer issues reduces under, are known to be width 1 and fit the data.
func (o *Optimizer) bind(ctx context.Context) error {
	if w := o.Cfg.Weights; w != nil && (w.Replicates() != 1 || w.NumPatterns() != o.E.Data.TotalPatterns) {
		return fmt.Errorf("opt: invalid Cfg.Weights: %d replicates over %d patterns, want 1 over the dataset's %d",
			w.Replicates(), w.NumPatterns(), o.E.Data.TotalPatterns)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	o.ctx = ctx
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
// loop per partition group, the groups one after another. The first group's
// first derivative region recomputes the stale CLVs at both ends (per the
// paper, 3-4 inner vectors on average during search) and projects every
// partition's sumtable, which the later groups find current. With
// per-partition branch lengths oldPAR therefore issues one narrow derivative
// region per iteration *per partition*, and newPAR one derivative region per
// lockstep iteration over all unconverged partitions — the same iterations,
// cut into regions differently. With a joint branch length there is one
// group either way, matching the paper's observation that joint-estimate
// analyses gain only ~5% (from the model parameters alone).
func (o *Optimizer) OptimizeBranch(p *tree.Node) float64 { return o.optimizeBranch(p, 0, false) }

// RankBranch is OptimizeBranch for a length that is scored and thrown away
// (a trial insertion's): each unknown also stops once its Newton step was
// predicted to gain less than gainTol lnL (numeric.NewtonState.GainTol).
// FinishBranch(p) then takes the stopped unknowns on, on the sumtable
// RankBranch left current, through the steps they would have taken without
// the stop: the two together choose OptimizeBranch(p)'s lengths bit for bit.
func (o *Optimizer) RankBranch(p *tree.Node, gainTol float64) { o.optimizeBranch(p, gainTol, false) }

// FinishBranch finishes the last RankBranch(p).
func (o *Optimizer) FinishBranch(p *tree.Node) { o.optimizeBranch(p, 0, true) }

func (o *Optimizer) optimizeBranch(p *tree.Node, gainTol float64, resume bool) float64 {
	if o.cancelled() {
		// Leave the branch as-is: no region is issued and the tree stays
		// exactly as the last completed iteration left it.
		return 0
	}
	maxDelta := 0.0
	for _, g := range o.blGroups {
		if o.cancelled() {
			break
		}
		maxDelta = math.Max(maxDelta, o.newtonGroup(p, g, gainTol, resume))
	}
	return maxDelta
}

// newtonGroup runs the paper's simultaneous Newton-Raphson on the branch at
// p over one partition group: one NewtonState per unknown advanced in
// lockstep, one derivative region per iteration, and the convergence boolean
// vector (the mask) shrinking that region as partitions finish. An unknown is
// a branch-length slot; under a joint estimate the whole group shares slot 0
// and that one state observes the group's summed derivatives. An unknown
// retires when its state converges or stops (at gainTol) or after
// maxNewtonIter steps; with resume the loop starts no state, but resumes the
// stopped ones.
func (o *Optimizer) newtonGroup(p *tree.Node, g []int, gainTol float64, resume bool) float64 {
	e := o.E
	o.enter(g)
	unknowns := g
	if !e.PerPartitionBL {
		unknowns = g[:1]
	}
	remaining := 0
	for _, ip := range unknowns {
		slot := e.BranchSlot(ip)
		st := &o.newts[slot]
		if !resume {
			*st = numeric.NewNewtonState(p.Z[slot], tree.MinBranchLen, tree.MaxBranchLen, branchTol)
			st.GainTol = gainTol
		} else if st.Stopped {
			st.Resume()
		}
		if live(st) {
			remaining++
		} else if !o.Cfg.DisableConvergenceMask {
			o.mask[ip] = false
		}
	}
	for remaining > 0 && !o.cancelled() {
		for _, ip := range g {
			o.x[ip] = o.newts[e.BranchSlot(ip)].Point()
		}
		e.BranchDerivatives(p, o.x, o.mask, o.Cfg.Weights, o.d1, o.d2, nil)
		if !e.PerPartitionBL {
			// Fixed ascending partition order keeps the sum reproducible.
			for _, ip := range g[1:] {
				o.d1[g[0]] += o.d1[ip]
				o.d2[g[0]] += o.d2[ip]
			}
		}
		for _, ip := range unknowns {
			st := &o.newts[e.BranchSlot(ip)]
			if live(st) && (st.Observe(o.d1[ip], o.d2[ip]) || st.Steps == maxNewtonIter) {
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

// live reports whether a Newton state still steps: not converged, not
// stopped and short of maxNewtonIter steps.
func live(st *numeric.NewtonState) bool {
	return !st.Converged && !st.Stopped && st.Steps < maxNewtonIter
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
	return o.scoreRoot(), nil
}

// scoreRoot scores the tree at the canonical root under Cfg.Weights, per
// partition into o.score: one region, recomputing the stale CLVs first.
func (o *Optimizer) scoreRoot() float64 {
	var lnl [1]float64
	o.E.Evaluate(o.E.Tree.Tips[0].Back, nil, o.Cfg.Weights, lnl[:], o.score)
	return lnl[0]
}

// smoothRec optimizes the branch at p, then recursively all branches behind
// p.Back. It restores no CLV on the way back: each OptimizeBranch's first
// derivative region recomputes what the lengths moved since made stale.
func (o *Optimizer) smoothRec(p *tree.Node) float64 {
	maxDelta := o.OptimizeBranch(p)
	q := p.Back
	if q.IsTip() {
		return maxDelta
	}
	maxDelta = math.Max(maxDelta, o.smoothRec(q.Next.Back))
	return math.Max(maxDelta, o.smoothRec(q.Next.Next.Back))
}

func relDelta(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), 1e-8)
	return d / scale
}
