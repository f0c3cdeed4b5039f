// Package search implements a RAxML-style lazy SPR (subtree pruning and
// regrafting) maximum-likelihood tree search on top of the likelihood engine
// and the optimizer package. The search is deterministic for a fixed starting
// tree, which the paper relies on to compare parallelization strategies on
// identical work ("full ML tree searches (on a fixed input tree for
// reproducibility)").
//
// Per improvement round, every directed subtree is pruned in turn; insertion
// into every branch within a configurable radius of the pruning point is
// tried with a partial update (the stale CLVs around the insertion node,
// recomputed in the Newton pass's first region) and a short Newton-Raphson
// optimization of the insertion branch, and scored off the sumtable that
// optimization left, in one more derivative region — the mixture of
// narrow-and-frequent branch-length work that makes tree search the paper's
// "practically most relevant case" for the load-balance problem.
// Every score a prune compares (the reinsertion baseline's too) comes from
// that one scorer; an applied move's tree is scored by SmoothAll's closing
// evaluation.
//
// A trial's Newton pass stops at rankTol, and only a trial that can matter
// to its prune is finished to full precision (insert), so every winner,
// move and output bit is the one a search solving every trial to full
// precision gives.
//
// The package is region-structured: cancellation is consulted only at
// round and insertion boundaries (//plk:regionboundary functions), never
// mid-kernel.
//
//plk:regions
package search

import (
	"context"
	"math"

	"phylo/internal/core"
	"phylo/internal/opt"
	"phylo/internal/tree"
)

// minImprovement is the margin an SPR move must beat the reinsertion
// baseline by to be applied.
const minImprovement = 0.01

// rankTol is the lnL precision a trial's branch is first solved to: its
// Newton loop stops once a step is predicted to gain less (opt.RankBranch).
// The ranking solve is the full solve's first steps, and the predicted step
// is taken before it stops, so its score falls short of the full-precision
// one by less than about rankTol. A trial's score is only compared within its
// prune, where a move must win by minImprovement; a tenth of that leaves few
// trials close enough to need finishing.
const rankTol = minImprovement / 10

// Config tunes the SPR search.
type Config struct {
	// Opt configures branch/model optimization (and selects oldPAR/newPAR).
	Opt opt.Config
	// MaxRounds caps SPR improvement rounds.
	MaxRounds int
	// Radius is the maximum insertion distance from the pruning point.
	Radius int
	// Epsilon stops the search when a full round improves lnL by less.
	Epsilon float64
	// Progress, if non-nil, is called after every completed SPR round with
	// the 1-based round number, the round's log likelihood, and the
	// cumulative applied/tried move counts. It runs between parallel
	// regions on the searching goroutine and must not call into the engine.
	Progress func(round int, lnl float64, movesApplied, movesTried int)
}

// DefaultConfig returns production defaults (radius and epsilon follow
// RAxML's fast defaults).
func DefaultConfig(strategy opt.Strategy) Config {
	return Config{
		Opt:       opt.DefaultConfig(strategy),
		MaxRounds: 5,
		Radius:    5,
		Epsilon:   0.1,
	}
}

// Result reports a finished search.
type Result struct {
	LnL          float64
	Rounds       int
	MovesApplied int
	MovesTried   int
}

// Searcher holds the search state over one engine.
type Searcher struct {
	E   *core.Engine
	Cfg Config
	o   *opt.Optimizer
	ctx context.Context

	best  float64
	moves int
	tried int
	// Branch-length scratch: the pruned subtree's connection length, the
	// fused branch, a trial insertion's two halves and its scored lengths
	// (indexed by partition).
	zConnSave, zf, za, zb, zs []float64
}

// New prepares a searcher.
func New(e *core.Engine, cfg Config) *Searcher {
	return &Searcher{E: e, Cfg: cfg, o: opt.New(e, cfg.Opt)}
}

// cancelled reports whether the search context has been cancelled; it is
// polled at synchronization-region boundaries, never inside a region.
//
//plk:regionboundary
func (s *Searcher) cancelled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// Run executes the SPR search and returns the best log likelihood found.
// When ctx is cancelled mid-search the run winds down at the next region
// boundary: any pruned subtree is restored first, the tree is re-smoothed
// into a consistent state, and the returned Result carries the exact score
// of that tree alongside the context's error — a usable partial result.
// Invalid Cfg.Opt.Weights are an error before any region runs.
//
//plk:regionboundary
func (s *Searcher) Run(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	var err error
	if s.best, err = s.o.SmoothAll(ctx); err != nil {
		return Result{LnL: s.best}, err
	}
	rounds := 0
	for r := 0; r < s.Cfg.MaxRounds && !s.cancelled(); r++ {
		rounds++
		prev := s.best
		s.sprRound()
		if s.best, err = s.o.SmoothAll(ctx); err != nil {
			return Result{LnL: s.best, Rounds: rounds, MovesApplied: s.moves, MovesTried: s.tried}, err
		}
		if s.Cfg.Progress != nil {
			s.Cfg.Progress(rounds, s.best, s.moves, s.tried)
		}
		if s.best-prev < s.Cfg.Epsilon {
			break
		}
	}
	return Result{LnL: s.best, Rounds: rounds, MovesApplied: s.moves, MovesTried: s.tried}, ctx.Err()
}

// sprRound prunes every directed subtree once and applies the best improving
// insertion (if any) for each.
func (s *Searcher) sprRound() {
	// Materialize the candidate list up front: topology changes during the
	// round, but inner records persist.
	var candidates []*tree.Node
	for _, in := range s.E.Tree.Inner {
		candidates = append(candidates, in, in.Next, in.Next.Next)
	}
	for _, v := range candidates {
		if s.cancelled() {
			return
		}
		s.trySubtree(v)
	}
}

// trySubtree prunes the subtree behind v.Back, scans insertion branches
// within the radius, and either applies the best improving move or restores
// the original topology exactly. Every edit at v's node runs tree.ClearXAt(v)
// (the prune before it cuts, each trial splice, a restore or an applied move
// once connected), so the X flags stay true throughout and each region
// recomputes only the CLVs an edit made stale.
func (s *Searcher) trySubtree(v *tree.Node) {
	b1 := v.Next.Back
	b2 := v.Next.Next.Back

	// Save restore state: the original neighbor slices (nothing writes them
	// while v is pruned) and the subtree connection length, which each trial
	// insertion's Newton pass moves and restores.
	z1 := v.Next.Z
	z2 := v.Next.Next.Z
	s.zConnSave = append(s.zConnSave[:0], v.Z...)

	// Prune: fuse the two neighbor branches.
	tree.ClearXAt(v)
	s.zf = s.zf[:0]
	for k := range z1 {
		s.zf = append(s.zf, tree.ClampBranchLen(z1[k]+z2[k]))
	}
	tree.Connect(b1, b2, s.zf)
	v.Next.Back = nil
	v.Next.Next.Back = nil

	// Baseline: re-insertion into the fused branch (the null move), ranked
	// only.
	ref := s.tryInsert(v, b1, math.Inf(1))
	bestLnL := ref
	var bestU *tree.Node
	// scan tries both branches behind w's node, away from w, and the
	// branches behind each down to the radius.
	var scan func(w *tree.Node, depth int)
	scan = func(w *tree.Node, depth int) {
		if w.IsTip() {
			return
		}
		for _, u := range [2]*tree.Node{w.Next, w.Next.Next} {
			if s.cancelled() {
				// Stop descending; trySubtree still restores the pruned
				// subtree below, so cancellation never leaves a mutilated
				// topology.
				return
			}
			// A trial matters only if it beats the best so far and the
			// margin over the baseline a move needs, less rankTol: the
			// ranked baseline may be that far from its exact score.
			if lnl := s.tryInsert(v, u, math.Max(bestLnL, ref+minImprovement-rankTol)); lnl > bestLnL {
				bestLnL = lnl
				bestU = u
			}
			if depth < s.Cfg.Radius {
				scan(u.Back, depth+1)
			}
		}
	}
	scan(b2, 1)
	scan(b1, 1)

	// bestLnL is a full-precision score wherever it can beat the margin. The
	// ranked baseline settles the margin unless bestLnL lies within rankTol
	// of it; then the baseline, solved again to full precision, does (-Inf
	// once cancelled: no move then).
	if bestU != nil && math.Abs(bestLnL-(ref+minImprovement)) <= rankTol {
		if ref = s.insert(v, b1, math.Inf(-1)); math.IsInf(ref, -1) {
			bestU = nil
		}
	}
	if bestU != nil && bestLnL > ref+minImprovement {
		// Apply: insert v into the winning branch for good. The three slices
		// the move frees (z1, z2 and the winner's) carry its three branches.
		s.moves++
		uB, zu := bestU.Back, bestU.Z
		copy(z1, s.zf)
		tree.Connect(b1, b2, z1)
		for k := range zu {
			zu[k] = tree.ClampBranchLen(zu[k] / 2)
		}
		copy(z2, zu)
		tree.Connect(v.Next, bestU, z2)
		tree.Connect(v.Next.Next, uB, zu)
		tree.ClearXAt(v)
		// Local smoothing of the three branches around the insertion point
		// (the lazy-SPR region the paper's Figure 1 sketches).
		s.o.OptimizeBranch(v)
		s.o.OptimizeBranch(v.Next)
		s.o.OptimizeBranch(v.Next.Next)
		return
	}
	// Restore the original topology and branch lengths exactly (each trial
	// restored the subtree connection length).
	tree.Connect(v.Next, b1, z1)
	tree.Connect(v.Next.Next, b2, z2)
	tree.ClearXAt(v)
}

// tryInsert counts a trial insertion of v into the branch (u, u.Back) and
// scores it (insert), unless the search is cancelled.
func (s *Searcher) tryInsert(v, u *tree.Node, bar float64) float64 {
	if s.cancelled() {
		// Score nothing: -Inf never beats the reinsertion baseline, so the
		// caller takes the restore path untouched.
		return math.Inf(-1)
	}
	s.tried++
	return s.insert(v, u, bar)
}

// insert splices v into the branch (u, u.Back), solves the connecting branch
// and scores the insertion off the sumtable that solve left, at the lengths
// it chose: the lnL lane of one more derivative region, no evaluation
// (DESIGN.md "Region execution" says why its bits need not be Evaluate's:
// only the ranking inside a prune reads them). Then it undoes the splice.
//
// The solve is a ranking one (opt.RankBranch, stopped at rankTol), and its
// score is returned unless it comes within rankTol of bar, the score the
// trial must beat to matter to the prune (-Inf: always). Then the solve is
// finished on the same sumtable (opt.FinishBranch) and the score is the
// full-precision one, bit for bit. So every trial that can win a prune, or
// turn a move down, is scored exactly, and the prune picks the winner a
// full-precision scan picks.
//
// The splice's tree.ClearXAt(v) clears exactly the flags whose view now
// contains v, so the solve's first region recomputes v and whatever lies
// between the last region's root and the insertion branch, and nothing else.
func (s *Searcher) insert(v, u *tree.Node, bar float64) float64 {
	uB := u.Back
	zu := u.Z
	s.za, s.zb = s.za[:0], s.zb[:0]
	for k := range zu {
		s.za = append(s.za, tree.ClampBranchLen(zu[k]/2))
		s.zb = append(s.zb, tree.ClampBranchLen(zu[k]/2))
	}
	tree.Connect(v.Next, u, s.za)
	tree.Connect(v.Next.Next, uB, s.zb)
	// Solve the branch connecting the pruned subtree and score across it,
	// under the weights the optimizer prices branch lengths with.
	tree.ClearXAt(v)
	s.o.RankBranch(v, rankTol)
	lnl := s.score(v)
	if lnl+rankTol > bar {
		s.o.FinishBranch(v)
		lnl = s.score(v)
	}

	// Undo: reconnect the target branch with its original slice (nothing
	// wrote it), leave v dangling, restore the subtree connection length.
	tree.Connect(u, uB, zu)
	v.Next.Back = nil
	v.Next.Next.Back = nil
	copy(v.Z, s.zConnSave)
	return lnl
}

// score returns the log likelihood across the branch at v, at the lengths
// the last solve chose, off v's sumtable (current after that solve: the
// region projects nothing). A cancelled search scores nothing (-Inf).
func (s *Searcher) score(v *tree.Node) float64 {
	if s.cancelled() {
		return math.Inf(-1)
	}
	e := s.E
	s.zs = s.zs[:0]
	for ip := range e.NumPartitions() {
		s.zs = append(s.zs, v.Z[e.BranchSlot(ip)])
	}
	lnl := [1]float64{}
	e.BranchDerivatives(v, s.zs, nil, s.Cfg.Opt.Weights, nil, nil, lnl[:])
	return lnl[0]
}
