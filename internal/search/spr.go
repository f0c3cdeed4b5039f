// Package search implements a RAxML-style lazy SPR (subtree pruning and
// regrafting) maximum-likelihood tree search on top of the likelihood engine
// and the optimizer package. The search is deterministic for a fixed starting
// tree, which the paper relies on to compare parallelization strategies on
// identical work ("full ML tree searches (on a fixed input tree for
// reproducibility)").
//
// Per improvement round, every directed subtree is pruned in turn; insertion
// into every branch within a configurable radius of the pruning point is
// evaluated with a partial update (one newview at the insertion node) plus a
// short Newton-Raphson optimization of the insertion branch — the mixture of
// narrow-and-frequent branch-length work that makes tree search the paper's
// "practically most relevant case" for the load-balance problem.
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

	best      float64
	moves     int
	tried     int
	zConnSave []float64
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
		s.E.InvalidateCLVs()
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
// the original topology exactly.
func (s *Searcher) trySubtree(v *tree.Node) {
	e := s.E
	b1 := v.Next.Back
	b2 := v.Next.Next.Back
	// Freshly orient everything; X flags cannot be trusted across the
	// topology edits of previous candidates.
	e.InvalidateCLVs()
	e.TraverseRoot(v, true, nil)

	// Save restore state: original neighbor slices and values.
	z1 := v.Next.Z
	z2 := v.Next.Next.Z
	z1v := append([]float64(nil), z1...)
	z2v := append([]float64(nil), z2...)
	s.zConnSave = append(s.zConnSave[:0], v.Z...)

	// Prune: fuse the two neighbor branches.
	zf := make([]float64, len(z1))
	for k := range zf {
		zf[k] = tree.ClampBranchLen(z1[k] + z2[k])
	}
	tree.Connect(b1, b2, zf)
	v.Next.Back = nil
	v.Next.Next.Back = nil

	// Orient the remaining tree towards the pruning site.
	clearXComponent(b1)
	if !b1.IsTip() {
		e.Traverse(b1, true, nil)
	}
	if !b2.IsTip() {
		e.Traverse(b2, true, nil)
	}

	// Baseline: re-insertion into the fused branch (the null move).
	ref := s.tryInsert(v, b1)
	bestLnL := ref
	var bestU *tree.Node
	scan := func(u *tree.Node, depth int) {}
	scan = func(u *tree.Node, depth int) {
		if s.cancelled() {
			// Stop descending; trySubtree still restores the pruned subtree
			// below, so cancellation never leaves a mutilated topology.
			return
		}
		if lnl := s.tryInsert(v, u); lnl > bestLnL {
			bestLnL = lnl
			bestU = u
		}
		w := u.Back
		if w.IsTip() || depth >= s.Cfg.Radius {
			return
		}
		// Descend while maintaining the CLV invariants: one newview before
		// entering each child branch and one on exit to restore the upward
		// view for siblings and ancestors.
		s.newview1(w.Next)
		scan(w.Next, depth+1)
		s.newview1(w.Next.Next)
		scan(w.Next.Next, depth+1)
		s.newview1(w)
	}
	if !b2.IsTip() {
		s.newview1(b2.Next)
		scan(b2.Next, 1)
		s.newview1(b2.Next.Next)
		scan(b2.Next.Next, 1)
		s.newview1(b2)
	}
	if !b1.IsTip() {
		s.newview1(b1.Next)
		scan(b1.Next, 1)
		s.newview1(b1.Next.Next)
		scan(b1.Next.Next, 1)
		s.newview1(b1)
	}

	if bestU != nil && bestLnL > ref+minImprovement {
		// Apply: insert v into the winning branch for good.
		s.moves++
		uB := bestU.Back
		zu := bestU.Z
		za := make([]float64, len(zu))
		zb := make([]float64, len(zu))
		for k := range zu {
			za[k] = tree.ClampBranchLen(zu[k] / 2)
			zb[k] = tree.ClampBranchLen(zu[k] / 2)
		}
		tree.Connect(v.Next, bestU, za)
		tree.Connect(v.Next.Next, uB, zb)
		copy(v.Z, s.zConnSave)
		e.InvalidateCLVs()
		e.TraverseRoot(v, true, nil)
		// Local smoothing of the three branches around the insertion point
		// (the lazy-SPR region the paper's Figure 1 sketches).
		s.o.OptimizeBranch(v)
		s.o.OptimizeBranch(v.Next)
		s.o.OptimizeBranch(v.Next.Next)
		return
	}
	// Restore the original topology and branch lengths exactly.
	tree.Connect(v.Next, b1, z1)
	copy(z1, z1v)
	tree.Connect(v.Next.Next, b2, z2)
	copy(z2, z2v)
	copy(v.Z, s.zConnSave)
}

// tryInsert splices v into the branch (u, u.Back), scores the insertion with
// one newview, a short Newton-Raphson pass on the connecting branch, and one
// evaluation, then undoes the splice. The caller guarantees the CLV at u
// towards u.Back and at u.Back towards u are valid.
func (s *Searcher) tryInsert(v, u *tree.Node) float64 {
	if s.cancelled() {
		// Score nothing: -Inf never beats the reinsertion baseline, so the
		// caller takes the restore path untouched.
		return math.Inf(-1)
	}
	s.tried++
	e := s.E
	uB := u.Back
	zu := u.Z
	zuv := append([]float64(nil), zu...)
	za := make([]float64, len(zu))
	zb := make([]float64, len(zu))
	for k := range zu {
		za[k] = tree.ClampBranchLen(zu[k] / 2)
		zb[k] = tree.ClampBranchLen(zu[k] / 2)
	}
	tree.Connect(v.Next, u, za)
	tree.Connect(v.Next.Next, uB, zb)
	// One explicit newview at the insertion node, then optimize the branch
	// connecting the pruned subtree and evaluate across it.
	s.newview1(v)
	s.o.OptimizeBranch(v)
	lnl, _ := e.Evaluate(v, nil)

	// Undo: reconnect the target branch with its original slice and values,
	// leave v dangling, restore the subtree connection length.
	tree.Connect(u, uB, zu)
	copy(zu, zuv)
	v.Next.Back = nil
	v.Next.Next.Back = nil
	copy(v.Z, s.zConnSave)
	return lnl
}

// newview1 executes a single explicit newview step at inner record p.
func (s *Searcher) newview1(p *tree.Node) {
	s.E.ExecuteSteps([]tree.TraversalStep{{P: p, Q: p.Next.Back, R: p.Next.Next.Back}}, nil)
}

// clearXComponent clears CLV orientation flags in the connected component
// containing start (the remaining tree after pruning), leaving the pruned
// subtree's valid orientations untouched.
func clearXComponent(start *tree.Node) {
	seen := make(map[int]bool)
	var walk func(p *tree.Node)
	walk = func(p *tree.Node) {
		if p == nil || seen[p.ID] {
			return
		}
		seen[p.ID] = true
		if !p.IsTip() {
			p.X = false
			p.Next.X = false
			p.Next.Next.X = false
			walk(p.Next.Back)
			walk(p.Next.Next.Back)
		}
		walk(p.Back)
	}
	walk(start)
}
