// Package opt implements the iterative ML parameter optimizers of the
// likelihood kernel — Newton-Raphson for branch lengths, Brent for the Gamma
// shape parameter alpha and the GTR exchangeability rates — as one lockstep
// loop each. A loop runs over a *group* of partitions: it keeps one iteration
// state per partition, issues one parallel region per iteration spanning the
// group's unconverged partitions, and retires partitions from the region
// through a boolean convergence vector as they finish.
//
// The two parallelization strategies the paper compares are two groupings
// (Optimizer.groups), nothing else:
//
//   - OldPar puts every partition in a group of its own, so every iteration
//     becomes a region spanning only that partition's alignment patterns.
//     With many short partitions and many threads, each worker receives a
//     handful of columns (or none at all) per synchronization event, which is
//     the load-balance problem the paper describes.
//
//   - NewPar (the paper's contribution) puts all partitions in one group, so
//     every region spans the full width of all not-yet-converged partitions
//     and synchronization cost is amortized across the whole alignment.
//
// A partition's iteration reads only its own derivatives or its own
// log likelihood, each reduced over that partition's shares in fixed order,
// so its trajectory cannot depend on which other partitions share the
// region: both strategies perform the identical arithmetic and return the
// identical bits, and differ only in the region count of the op trace
// parallel.Stats records (the barriers Platform prices).
//
// The package is region-structured: cancellation is consulted only at
// synchronization-region boundaries (//plk:regionboundary functions), never
// inside an optimizer iteration's kernel spans.
//
//plk:regions
package opt

import "phylo/internal/core"

// Strategy selects how partitions are grouped into parallel regions.
type Strategy int

const (
	// OldPar is the original scheme: one partition per group.
	OldPar Strategy = iota
	// NewPar is the paper's fix: all partitions in one group.
	NewPar
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	if s == NewPar {
		return "newPAR"
	}
	return "oldPAR"
}

// Config tunes the optimizers. The zero value runs no model-optimization
// round; call DefaultConfig.
type Config struct {
	Strategy Strategy

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

	// DisableConvergenceMask is an ablation switch: keep partitions whose
	// branch length has converged inside the group's derivative regions
	// instead of retiring them through the boolean convergence vector the
	// paper describes. Results are unchanged; newPAR regions just stay full
	// width.
	DisableConvergenceMask bool

	// Weights, if non-nil, makes every optimizer entry point run against this
	// replicate weight vector instead of the dataset's own pattern weights:
	// every evaluate and derivative region the optimizer issues reduces under
	// it. This is the shared-branch-length bootstrap mode: pass the batch's
	// WeightSet.Aggregate() and one optimization prices branch lengths against
	// the exact sum of all R replicate objectives (the aggregate identity
	// Σ_r Σ_p w_r[p]·log l_p = Σ_p W[p]·log l_p holds exactly because weights
	// are integer column counts), after which an Evaluate under the batch
	// splits the score back into per-replicate terms. The WeightSet must
	// have batch width 1 and match the engine's pattern space; OptimizeModel
	// and SmoothAll return an error for one that does not, before any region
	// runs.
	Weights *core.WeightSet
}

// DefaultConfig returns production defaults close to RAxML's.
func DefaultConfig(strategy Strategy) Config {
	return Config{
		Strategy:       strategy,
		MaxModelRounds: 10,
		OptimizeRates:  true,
	}
}
