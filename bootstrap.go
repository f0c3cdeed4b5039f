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
	// neighborhood (tree.NNIMoves, each scored in place), 2(n-3)+1
	// topologies in total.
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
// neighborhood under all R weight vectors at once — one batched evaluate a
// candidate reduces all replicates in a single pass, which is where the
// batching speedup over R independent sessions comes from — and aggregates
// each replicate's winning topology into per-branch support values.
//
// Each candidate is scored in place: its NNI move is applied to the
// session's tree under tree.ClearXAt, as the SPR search edits a topology,
// and undone again after its evaluate, and the branch lengths its smoothing
// moved are put back from a snapshot the same way. So a candidate recomputes
// only the CLVs its swap and those lengths made stale, never the whole tree.
//
// Branch lengths are optimized per candidate in the shared-branch-length mode:
// SmoothAll, run to its stop rule against the replicate-aggregate weights
// (see opt.Config.Weights), prices the branch lengths for the whole fleet,
// then the batched evaluate splits the score back into per-replicate terms.
// The sweep runs on the dataset's one schedule like every other call, so
// ReplicateLnL is a function of (data, options, replicates, seed) alone —
// concurrent sessions over the same Dataset, bootstrapping or not, cannot
// change a bit of it.
//
// The session's tree is restored before returning: Bootstrap is read-only
// from the caller's point of view. Cancelling ctx stops the sweep
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
		if restoreErr := an.tr.CopyTopologyFrom(original); restoreErr != nil && err == nil {
			err = restoreErr
		}
	}()

	// The candidate set: the session's tree first (so ties favour it), then
	// its complete NNI neighborhood, each move applied in place and undone.
	moves := an.tr.NNIMoves()
	cfg := an.optConfig()
	cfg.Weights = ws.Aggregate()
	lanes := make([][]float64, 1+len(moves))
	for i := range lanes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var swapped *tree.Node
		if i > 0 {
			swapped = an.tr.ApplyNNI(moves[i-1])
			tree.ClearXAt(swapped)
			tree.ClearXAt(swapped.Back)
		}
		weighted, err := opt.New(an.eng, cfg).SmoothAll(ctx)
		if err != nil {
			return nil, err
		}
		// SmoothAll closes on a traversal to the canonical root: its CLVs
		// serve every replicate as they stand.
		lanes[i] = make([]float64, replicates)
		an.eng.Evaluate(an.tr.Tips[0].Back, nil, ws, lanes[i], nil)
		if swapped != nil {
			an.tr.ApplyNNI(moves[i-1])
			tree.ClearXAt(swapped)
			tree.ClearXAt(swapped.Back)
		}
		an.tr.RestoreBranchLengths(original)
		if an.progress != nil {
			an.emit(ProgressEvent{Phase: PhaseBootstrap, Round: i + 1, LnL: weighted})
		}
	}

	res = &BootstrapResult{
		Replicates:      replicates,
		Seed:            seed,
		Candidates:      len(lanes),
		ReplicateLnL:    make([]float64, replicates),
		ReplicateWinner: make([]int, replicates),
	}
	wins := make([]int, len(lanes))
	for r := 0; r < replicates; r++ {
		best := 0
		for i := 1; i < len(lanes); i++ {
			if lanes[i][r] > lanes[best][r] {
				best = i
			}
		}
		res.ReplicateWinner[r] = best
		res.ReplicateLnL[r] = lanes[best][r]
		wins[best]++
	}
	// Each distinct winner's splits are read once, off the snapshot with the
	// winner's move applied and undone again.
	counter := tree.NewSupportCounter(original.NumTips())
	for i, n := range wins {
		if n == 0 {
			continue
		}
		if i > 0 {
			original.ApplyNNI(moves[i-1])
		}
		err := counter.Add(original, n)
		if i > 0 {
			original.ApplyNNI(moves[i-1])
		}
		if err != nil {
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
