package core

// Weighted operation costs per pattern, in approximate multiply-add units.
// They feed the WorkerCtx.Ops counters that (a) the virtual platform model
// prices into runtime and (b) the statistics use to quantify load imbalance.
// The 20-state kernels cost ~25x the 4-state ones per column, which is the
// paper's explanation for the milder load-balance problem on protein data
// ("roughly by a factor of 20x20/4x4=25").
//
// Since the tip-case specialization the costs are per *case*, not per
// kernel: a specialized tip child is a precomputed table-row product (O(s)
// per pattern) while an inner child pays a full P-matrix application (O(s²)),
// so charging both the same would misprice tip-adjacent patterns in both the
// runtime Ops counters and the weighted schedule's span costs.
//
// The costs are deliberately backend-invariant: the generic and fused kernel
// backends perform the same multiply-adds per pattern (the fused backend
// merely retires them faster over its cat-major layout), so pricing work in
// madd units keeps Ops counters and span costs comparable across backends —
// a schedule packed for one backend balances the other equally well, and the
// virtual platform model needs no per-backend calibration.
//
// A madd is a count, not a time. Wall time per priced op differs between the
// bodies (a newview traversal of 16 taxa, one thread, on the shared 2-vCPU
// Xeon reference box): the 20-state generic loops retire a priced op in about
// 0.10-0.11 ns where model.ApplyCols runs as its AVX kernel (0.12-0.15 ns
// with tip tables; 0.33-0.35 ns on its scalar loop), the 4-state generic loops
// in about 0.8-0.95 ns, and fused4 with tip tables in about 0.14-0.18 ns where
// its newview planes run as the AVX kernels (0.31 ns with the scalar loops).
// With both kernels a priced AA op is about 1.3x cheaper in wall time than a
// priced DNA op, where it was about 2x dearer on the scalar 20-state loop
// (TestProteinMaddFloor and TestFusedNewviewFloor hold two of the quotients).
// The weighted pack and opsNewviewAvg balance ops, so on a mixed DNA +
// protein dataset at W > 1 they balance time only up to that factor.
// UNVERIFIED: whether re-weighting spans by time per op would pack W > 1
// better; nothing here is re-tuned for it. A P block is priced at cats·s³
// (transition): 256 for four states at four categories, which
// model.PMatrices computes in about 80 ns on its AVX2 kernel (0.31 ns a
// priced op; about 250 ns, 0.98 ns, on the scalar code), and 32 000 for
// twenty, about 7 µs with the AVX column mat-vec (0.2 ns; about 15 µs,
// 0.47 ns, on its scalar loop; BenchmarkPMatrices in internal/model).

// opsNewviewCase is the per-pattern cost of one newview step given each
// child's kind: an inner child costs a full P application (s² madds), a
// specialized tip child one precomputed table-row read and multiply (s); the
// trailing 2s covers the entrywise product and the scaling check. Pass
// qTipFast/rTipFast as "this child actually ran the table-lookup path" — a
// tip child processed by the generic kernel still pays the full s².
func opsNewviewCase(states, cats int, qTipFast, rTipFast bool) float64 {
	cq := states * states
	if qTipFast {
		cq = states
	}
	cr := states * states
	if rTipFast {
		cr = states
	}
	return float64(cats * (cq + cr + 2*states))
}

// opsNewview is the inner/inner (worst) case of one newview step: two child
// P-matrix applications plus the entrywise product and scaling check. It is
// also the cost of the generic (unspecialized) kernel regardless of tips.
func opsNewview(states, cats int) float64 {
	return opsNewviewCase(states, cats, false, false)
}

// opsNewviewAvg prices the *average* per-pattern newview cost over a full
// traversal under tip-case specialization: a fraction tipFrac of the child
// slots are tips (table-row product, O(s)) and the rest are inner CLVs (full
// P application, O(s²)). The weighted scheduler uses it as the span cost —
// it cannot know the tree (one Shared backs sessions on many trees), but the
// tip fraction of a full traversal is a tree-shape invariant (see
// tipChildFrac), so this prices tip-heavy datasets honestly on average.
func opsNewviewAvg(states, cats int, tipFrac float64) float64 {
	child := tipFrac*float64(states) + (1-tipFrac)*float64(states*states)
	return float64(cats) * (2*child + 2*float64(states))
}

// tipChildFrac is the fraction of newview child slots that are tips in a
// full traversal of an unrooted binary tree with n taxa rooted on a tip
// branch: the n-2 steps have 2(n-2) child slots, of which n-1 are tips
// (every tip except the root one) and n-3 are inner nodes.
func tipChildFrac(numTaxa int) float64 {
	if numTaxa < 4 {
		return 1
	}
	return float64(numTaxa-1) / float64(2*numTaxa-4)
}

// opsEvaluateCase is the per-pattern cost of the root log-likelihood
// reduction under `lanes` replicate weights: the P application to the q-side
// vector (a table-row read, s, when the q tip is specialized; s² otherwise),
// the pi-weighted dot product, the log, and one weight multiply-accumulate
// (~2 madds) per lane beyond the first.
func opsEvaluateCase(states, cats int, qTipFast bool, lanes int) float64 {
	cq := states * states
	if qTipFast {
		cq = states
	}
	return float64(cats*(cq+2*states)+30) + 2*float64(lanes-1)
}

// opsSumtableCase is the per-pattern cost of building the Newton-Raphson
// sumtable: two eigenbasis projections per category, each reduced to a
// category-independent table-row read (s) when that end is a specialized
// tip, plus the s writes.
func opsSumtableCase(states, cats int, pTipFast, qTipFast bool) float64 {
	cp := states * states
	if pTipFast {
		cp = states
	}
	cq := states * states
	if qTipFast {
		cq = states
	}
	return float64(cats * (cp + cq + states))
}

// opsSumtable is the generic (both ends inner) sumtable cost.
func opsSumtable(states, cats int) float64 {
	return opsSumtableCase(states, cats, false, false)
}

// opsDerivative is the per-pattern cost of one derivative evaluation over an
// existing sumtable under `lanes` replicate weights (tips do not appear here:
// the sumtable already absorbed them); every lane beyond the first adds two
// weight multiply-accumulates (d1 and d2, ~4 madds).
func opsDerivative(states, cats, lanes int) float64 {
	return float64(cats*states*3+10) + 4*float64(lanes-1)
}

// opsTipTable is the one-off cost of gathering a lookup table for one tip
// child: one row of cats×s entries per code the tip carries in the partition
// (only those rows are built), each the sum of the P entries of the states the
// code allows; setStates is that state count totalled over the codes
// (tipSetStates). It amortizes over the worker's pattern share, which is why
// the kernels only build tables for shares tipTablesAmortize accepts.
func opsTipTable(states, cats, setStates int) float64 {
	return float64(setStates * cats * states)
}

// opsTipProj is the one-off cost of one category-independent sumtable
// projection table (one row of s entries per present code, each a sum over
// the code's allowed states); it is charged once per specialized tip end.
func opsTipProj(states, setStates int) float64 {
	return float64(setStates * states)
}
