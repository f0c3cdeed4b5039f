package core

import (
	"errors"
	"fmt"

	"phylo/internal/tree"
)

// Batched-replicate execution: the bootstrap-fleet fast path. An R-wide
// WeightSet attached to an evaluate or derivative region turns the final
// per-pattern reduction into an R-lane sweep — the site (or derivative
// ratio) value is computed once per pattern and accumulated under all R
// replicate weights — while everything upstream of the reduction (newview
// traversals, P matrices, tip tables, the sumtable) runs once and is shared
// by the whole batch. That is the entire win: an R-replicate bootstrap costs
// one traversal plus R cheap reduction lanes instead of R full evaluations.
//
// There is no separate batched driver or kernel: Evaluate and
// BranchDerivatives are the R = 1 case of the same evaluateLanes /
// derivativeLanes regions (see chunkexec.go), so lane r of a batch performs
// exactly the floating-point sequence of a width-1 run over replicate r's
// weights (same site values, same per-pattern multiply, same per-chunk
// accumulation and fixed chunk-id reduction order). Extracting a replicate
// (WeightSet.Replicate) and re-running it alone — batched, or through
// Evaluate under SetWeightOverride — reproduces its batched lnL bit for bit.

// checkBatch validates a WeightSet against the session's dataset.
func (e *Engine) checkBatch(ws *WeightSet) error {
	if ws == nil {
		return errors.New("core: nil weight set")
	}
	if ws.patterns != e.Data.TotalPatterns {
		return fmt.Errorf("core: weight set covers %d patterns, dataset has %d", ws.patterns, e.Data.TotalPatterns)
	}
	return nil
}

// SetWeightOverride replaces the pattern weights Evaluate and
// BranchDerivatives reduce under with a single-replicate WeightSet (R must be
// 1); nil restores the dataset's own weights. This is how the optimizer runs
// against a replicate — or the replicate-aggregate of a whole batch (see
// WeightSet.Aggregate and the shared-branch-length mode in internal/opt).
// Must be called between regions; the override does not affect EvaluateBatch
// and BranchDerivativesBatch, which carry their own WeightSet.
func (e *Engine) SetWeightOverride(ws *WeightSet) error {
	if ws == nil {
		e.weightOverride = nil
		return nil
	}
	if ws.r != 1 {
		return fmt.Errorf("core: weight override must have batch width 1, got %d", ws.r)
	}
	if err := e.checkBatch(ws); err != nil {
		return err
	}
	e.weightOverride = ws
	return nil
}

// ownWeights returns the width-1 WeightSet Evaluate and BranchDerivatives
// reduce under: the session's override when set, the dataset's own weights
// otherwise.
func (e *Engine) ownWeights() *WeightSet {
	if e.weightOverride != nil {
		return e.weightOverride
	}
	return e.shared.weights
}

// EvaluateBatch computes the per-replicate log likelihoods at the virtual
// root on branch (p, p.Back) under an R-wide WeightSet: one parallel region
// in which every site log likelihood is computed once and reduced into R
// weighted partials. Both end CLVs must already be valid and oriented towards
// the branch (use TraverseRoot) — and because pattern likelihoods are
// weight-independent, one traversal serves every replicate of the batch. The
// returned slice has one total per replicate; masked partitions contribute to
// none of them.
func (e *Engine) EvaluateBatch(p *tree.Node, active []bool, ws *WeightSet) ([]float64, error) {
	if err := e.checkBatch(ws); err != nil {
		return nil, err
	}
	R := ws.r
	act := e.activeOrAll(active)
	perPart := e.evaluateLanes(p, act, ws)
	totals := make([]float64, R)
	for ip := range e.Data.Parts {
		if !act[ip] {
			continue
		}
		for r := 0; r < R; r++ {
			totals[r] += perPart[ip*R+r]
		}
	}
	return totals, nil
}

// LogLikelihoodBatch runs one full traversal to the canonical virtual root
// and evaluates all R replicate log likelihoods of the WeightSet in a single
// batched reduction — the bootstrap fleet's scoring primitive.
func (e *Engine) LogLikelihoodBatch(ws *WeightSet) ([]float64, error) {
	if err := e.checkBatch(ws); err != nil {
		return nil, err
	}
	if e.obsBatchWidth != nil {
		e.obsBatchWidth.Set(float64(ws.r))
	}
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	return e.EvaluateBatch(root, nil, ws)
}

// BranchDerivativesBatch evaluates d lnL / dz and d² lnL / dz² for every
// replicate of the WeightSet over the branch whose sumtable was last
// prepared, at per-partition branch lengths z. The sumtable — like the CLVs —
// is weight-independent, so one PrepareSumtable serves the whole batch and
// each Newton iteration costs one R-lane sweep. Results land in d1 and d2,
// both of length NumPartitions*R indexed [partition*R + replicate]; masked
// partitions are zeroed.
func (e *Engine) BranchDerivativesBatch(z []float64, active []bool, ws *WeightSet, d1, d2 []float64) error {
	if err := e.checkBatch(ws); err != nil {
		return err
	}
	want := len(e.Data.Parts) * ws.r
	if len(d1) != want || len(d2) != want {
		return fmt.Errorf("core: derivative buffers have %d/%d entries, want %d (partitions x replicates)", len(d1), len(d2), want)
	}
	e.derivativeLanes(z, e.activeOrAll(active), ws, d1, d2)
	return nil
}
