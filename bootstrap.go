package phylo

import (
	"context"
	"fmt"

	"phylo/internal/core"
	"phylo/internal/opt"
	"phylo/internal/tree"
)

// PhaseBootstrap events stream from Bootstrap, one per scored candidate
// topology.
const PhaseBootstrap Phase = "bootstrap"

// BootstrapResult reports one bootstrap run: R replicate weight vectors were
// drawn, a fixed candidate topology set was scored under all of them in one
// batched sweep, and the per-replicate winners were folded into split support
// values on the session's tree.
type BootstrapResult struct {
	// Replicates is the number R of bootstrap weight vectors drawn.
	Replicates int
	// Seed is the base seed the replicate weights derive from: replicate r is
	// a pure function of (dataset, Seed, r), independent of R, so growing the
	// fleet never changes the replicates already drawn.
	Seed int64
	// Candidates is the size of the scored topology set: the session's
	// current tree plus its complete nearest-neighbor-interchange
	// neighborhood, 2(n-3)+1 topologies in total.
	Candidates int
	// ReplicateLnL[r] is replicate r's best weighted log likelihood across
	// the candidate set — bit-identical to the score a dedicated
	// single-replicate session computes for the same topology and weights.
	ReplicateLnL []float64
	// ReplicateWinner[r] is the index of replicate r's winning candidate
	// (0 = the session's own tree; ties resolve to the lowest index).
	ReplicateWinner []int
	// Support maps each non-trivial split of the session's tree (canonical
	// split key, see tree.SplitKey) to the fraction of replicates whose
	// winning topology contains it.
	Support map[string]float64
	// TreeNewick is the session's tree annotated with integer-percent
	// support values on its internal nodes (e.g. ")87:0.012").
	TreeNewick string
}

// Bootstrap runs an R-replicate bootstrap over the session's current tree in
// one batched sweep. It draws R multinomial pattern-weight vectors from the
// compressed alignment (seeded, reproducible, each replicate's column total
// equal to the original site count), scores the tree and its full NNI
// neighborhood under all R weight vectors at once — newview runs once per
// candidate while the batched evaluate reduces all replicates in a single
// pass, which is where the batching speedup over R independent sessions comes
// from — and aggregates each replicate's winning topology into per-branch
// support values.
//
// Branch lengths are optimized per candidate in the shared-branch-length mode:
// one smoothing pass against the replicate-aggregate weights (see
// opt.Config.Weights) prices the branch lengths for the whole fleet, then the
// batched evaluate splits the score back into per-replicate terms. The sweep
// runs on the dataset's one schedule like every other call, so ReplicateLnL
// is a function of (data, options, replicates, seed) alone — concurrent
// sessions over the same Dataset, bootstrapping or not, cannot change a bit
// of it.
//
// The session's tree and weights are restored before returning: Bootstrap is
// read-only from the caller's point of view. Cancelling ctx stops the sweep
// at the next candidate boundary and returns the context's error.
func (an *Analysis) Bootstrap(ctx context.Context, replicates int, seed int64) (res *BootstrapResult, err error) {
	ctx = orBackground(ctx)
	if err := an.guard(); err != nil {
		return nil, err
	}
	if replicates < 1 {
		return nil, fmt.Errorf("phylo: bootstrap replicate count %d must be positive", replicates)
	}
	ws, err := core.NewWeightSet(an.ds.data, replicates, seed)
	if err != nil {
		return nil, err
	}

	// Snapshot the caller's tree (topology and branch lengths) so the session
	// comes back exactly as it went in, whatever happens below.
	original, err := an.tr.Clone()
	if err != nil {
		return nil, err
	}
	defer func() {
		an.eng.SetWeightOverride(nil)
		if restoreErr := an.tr.CopyTopologyFrom(original); restoreErr != nil && err == nil {
			err = restoreErr
		}
		an.eng.InvalidateCLVs()
	}()

	// The candidate set: the session's tree first (so ties favour it), then
	// its complete NNI neighborhood.
	nni, err := an.tr.NNICandidates()
	if err != nil {
		return nil, err
	}
	candidates := append([]*tree.Tree{original}, nni...)

	cfg := an.optConfig()
	cfg.Weights = ws.Aggregate()
	lanes := make([][]float64, len(candidates))
	for i, cand := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := an.tr.CopyTopologyFrom(cand); err != nil {
			return nil, err
		}
		an.eng.InvalidateCLVs()
		weighted, err := opt.New(an.eng, cfg).SmoothAll(ctx)
		if err != nil {
			return nil, err
		}
		ls, err := an.eng.LogLikelihoodBatch(ws)
		if err != nil {
			return nil, err
		}
		lanes[i] = ls
		if an.progress != nil {
			an.emit(ProgressEvent{Phase: PhaseBootstrap, Round: i + 1, LnL: weighted})
		}
	}

	res = &BootstrapResult{
		Replicates:      replicates,
		Seed:            seed,
		Candidates:      len(candidates),
		ReplicateLnL:    make([]float64, replicates),
		ReplicateWinner: make([]int, replicates),
	}
	counter := tree.NewSupportCounter(original.NumTips())
	for r := 0; r < replicates; r++ {
		best := 0
		for i := 1; i < len(candidates); i++ {
			if lanes[i][r] > lanes[best][r] {
				best = i
			}
		}
		res.ReplicateWinner[r] = best
		res.ReplicateLnL[r] = lanes[best][r]
		if err := counter.Add(candidates[best]); err != nil {
			return nil, err
		}
	}
	sup, err := counter.Support(original)
	if err != nil {
		return nil, err
	}
	res.Support = sup
	res.TreeNewick = tree.WriteNewickSupport(original, 0, sup)
	return res, nil
}
