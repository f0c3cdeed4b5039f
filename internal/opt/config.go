// Package opt implements the iterative ML parameter optimizers of the
// likelihood kernel — Newton-Raphson for branch lengths, Brent for the Gamma
// shape parameter alpha and the GTR exchangeability rates — in the two
// parallelization strategies the paper compares:
//
//   - OldPar optimizes one partition at a time: every optimizer iteration
//     becomes a parallel region spanning only that partition's alignment
//     patterns. With many short partitions and many threads, each worker
//     receives a handful of columns (or none at all) per synchronization
//     event, which is the load-balance problem the paper describes.
//
//   - NewPar (the paper's contribution) advances the iterative procedures of
//     *all* partitions simultaneously, tracking per-partition convergence in
//     a boolean vector, so that every parallel region spans the full width of
//     all not-yet-converged partitions and synchronization cost is amortized
//     across the whole alignment.
//
// Both strategies produce the same optima; they differ only in how the work
// is cut into parallel regions, which the parallel.Stats counters expose.
//
// The package is region-structured: cancellation is consulted only at
// synchronization-region boundaries (//plk:regionboundary functions), never
// inside an optimizer iteration's kernel spans.
//
//plk:regions
package opt

import (
	"phylo/internal/core"
	"phylo/internal/model"
)

// Strategy selects the parallelization of the iterative optimizers.
type Strategy int

const (
	// OldPar is the original per-partition-at-a-time scheme.
	OldPar Strategy = iota
	// NewPar is the simultaneous all-partitions scheme (the paper's fix).
	NewPar
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	if s == NewPar {
		return "newPAR"
	}
	return "oldPAR"
}

// Config tunes the optimizers. The zero value is not usable; call
// DefaultConfig.
type Config struct {
	Strategy Strategy

	// BranchTol is the relative branch-length convergence tolerance of
	// Newton-Raphson.
	BranchTol float64
	// MaxNewtonIter caps Newton iterations per branch and partition.
	MaxNewtonIter int
	// SmoothPasses caps the branch-smoothing sweeps over the whole tree.
	SmoothPasses int

	// BrentTol is the relative x tolerance of Brent iterations.
	BrentTol float64
	// MaxBrentIter caps Brent iterations per parameter and partition.
	MaxBrentIter int

	// ModelEps ends the outer model-optimization loop once a full round
	// improves the log likelihood by less than this.
	ModelEps float64
	// MaxModelRounds caps outer rounds.
	MaxModelRounds int

	// OptimizeRates enables GTR exchangeability optimization (DNA
	// partitions); alpha is always optimized.
	OptimizeRates bool

	// Progress, if non-nil, is called after every completed outer
	// model-optimization round with the 1-based round number and the round's
	// final log likelihood. It runs on the optimizing goroutine between
	// parallel regions, so it must be fast and must not call back into the
	// engine.
	Progress func(round int, lnl float64)

	// DisableConvergenceMask is an ablation switch: under newPAR, keep
	// already-converged partitions inside every parallel region instead of
	// retiring them through the boolean convergence vector the paper
	// describes. Results are unchanged; regions just stay full width.
	DisableConvergenceMask bool

	// MinBranch/MaxBranch clamp branch lengths.
	MinBranch, MaxBranch float64

	// Weights, if non-nil, makes every optimizer entry point run against this
	// replicate weight vector instead of the dataset's own pattern weights:
	// the width-1 WeightSet is installed on the engine (SetWeightOverride) the
	// moment OptimizeModel or SmoothAll binds, and stays installed afterwards
	// so the caller's follow-up evaluations score the same weighted objective.
	// This is the shared-branch-length bootstrap mode: pass the batch's
	// WeightSet.Aggregate() and one optimization prices branch lengths against
	// the exact sum of all R replicate objectives (the aggregate identity
	// Σ_r Σ_p w_r[p]·log l_p = Σ_p W[p]·log l_p holds exactly because weights
	// are integer column counts), after which EvaluateBatch splits the score
	// back into per-replicate terms. A nil Weights leaves whatever override
	// the engine already carries untouched — clearing is always the explicit
	// SetWeightOverride(nil). The WeightSet must have batch width 1 and match
	// the engine's pattern space; an invalid one panics at bind time, like any
	// other structurally impossible configuration.
	Weights *core.WeightSet
}

// DefaultConfig returns production defaults close to RAxML's.
func DefaultConfig(strategy Strategy) Config {
	return Config{
		Strategy:       strategy,
		BranchTol:      1e-6,
		MaxNewtonIter:  64,
		SmoothPasses:   16,
		BrentTol:       1e-4,
		MaxBrentIter:   100,
		ModelEps:       0.1,
		MaxModelRounds: 10,
		OptimizeRates:  true,
		MinBranch:      model.MinBranchLen,
		MaxBranch:      model.MaxBranchLen,
	}
}
