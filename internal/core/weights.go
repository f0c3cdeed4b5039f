package core

import (
	"fmt"
	"math/rand"

	"phylo/internal/alignment"
	"phylo/internal/numeric"
)

// Bootstrap-fleet weight batching. A nonparametric bootstrap replicate of a
// compressed alignment is nothing but a reweighted pattern vector: resampling
// the original columns with replacement and recompressing would yield the
// same pattern set with new multiplicities (goalign's BuildBootstrap /
// weightboot idiom). A WeightSet therefore holds R per-pattern weight
// vectors over one dataset's existing global pattern space, so R replicates
// can share every piece of per-dataset and per-session state — compressed
// patterns, tip tables, CLV layout, schedules, and above all the newview
// traversal itself: the conditional likelihood of a pattern does not depend
// on its weight, so one traversal serves all R replicates and only the
// final evaluate/derivative reductions fan out R-wide.
//
// There is no separate batched driver or kernel: Evaluate and
// BranchDerivatives take the WeightSet they reduce under as an argument (nil
// is the dataset's own weights, a width-1 set the Shared holds), and lane r
// of a batch performs exactly the floating-point sequence of a width-1 run
// over replicate r's weights (same site values, same per-pattern multiply,
// same per-chunk accumulation and fixed chunk-id reduction order), so lane r
// of Evaluate(ws) is Evaluate(ws.Replicate(r)) bit for bit.

// WeightSet is a batch of R per-pattern weight vectors over one dataset's
// global pattern space. Weights are stored replicate-contiguous per pattern
// (index pattern*R + r), which is the order the batched reduction kernels
// sweep: per pattern they read R adjacent weights and update R adjacent
// partials, keeping the per-pattern site likelihood — the expensive part —
// in a register across all replicates.
type WeightSet struct {
	r        int
	patterns int
	w        []float64
}

// replicateSeed derives the RNG seed of replicate r from the caller's seed
// with a splitmix64 finalizer, so that replicate r is a pure function of
// (data, seed, r) — independent of how many replicates the WeightSet holds.
// A fleet can therefore shard one logical bootstrap of R replicates across
// machines as smaller WeightSets and still produce identical weights.
func replicateSeed(seed int64, r int) int64 {
	z := uint64(seed) + uint64(r+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// newWeightSet checks a batch's shape and returns it with every weight zero.
func newWeightSet(data *alignment.CompressedData, R int) (*WeightSet, error) {
	if data == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if R < 1 {
		return nil, fmt.Errorf("core: replicate count %d must be positive", R)
	}
	return &WeightSet{r: R, patterns: data.TotalPatterns, w: make([]float64, data.TotalPatterns*R)}, nil
}

// NewWeightSet draws R bootstrap replicates over data's compressed patterns:
// for each replicate and each partition, SiteCount columns are resampled
// uniformly with replacement from the partition's original (uncompressed)
// columns — equivalently, a multinomial draw over the partition's patterns
// with probabilities weight/SiteCount — so every replicate's weights sum to
// the partition's original site count. The resampling is seeded and fully
// deterministic; see replicateSeed for the per-replicate derivation.
func NewWeightSet(data *alignment.CompressedData, R int, seed int64) (*WeightSet, error) {
	ws, err := newWeightSet(data, R)
	if err != nil {
		return nil, err
	}
	// Pattern j of a partition owns its original columns [cum[j], cum[j+1]),
	// cum the running sum of the weights: col maps each of them to j, so a
	// draw is one load instead of a binary search over cum.
	total := 0
	for _, p := range data.Parts {
		for _, wt := range p.Weights {
			total += int(wt)
		}
	}
	all := make([]int32, 0, total)
	cols := make([][]int32, 0, len(data.Parts))
	for _, p := range data.Parts {
		lo := len(all)
		for j, wt := range p.Weights {
			for range int(wt) {
				all = append(all, int32(j))
			}
		}
		cols = append(cols, all[lo:])
	}
	// One generator, reseeded per replicate: it draws what a fresh one would,
	// and reuses its register instead of allocating another.
	rng := rand.New(numeric.NewSource(0))
	for r := 0; r < R; r++ {
		rng.Seed(replicateSeed(seed, r))
		for i, col := range cols {
			// SiteCount uniform draws over the original columns, each counted
			// for the pattern that owns it.
			base, n := data.Parts[i].Offset*R, int64(len(col))
			for range col {
				j := int(col[rng.Int63n(n)])
				ws.w[base+j*R+r]++
			}
		}
	}
	return ws, nil
}

// UniformWeightSet returns a WeightSet of R copies of the dataset's original
// pattern weights — the "no resampling" batch. At R = 1 it is what Evaluate
// and BranchDerivatives reduce under for a nil WeightSet (Shared holds one),
// so every lane of a batched evaluation over it is bit-identical to the plain
// evaluation, which makes it the bridge the bit-identity tests and the
// batched-vs-plain benchmarks compare across.
func UniformWeightSet(data *alignment.CompressedData, R int) (*WeightSet, error) {
	ws, err := newWeightSet(data, R)
	if err != nil {
		return nil, err
	}
	for _, p := range data.Parts {
		for j, wt := range p.Weights {
			base := (p.Offset + j) * R
			for r := 0; r < R; r++ {
				ws.w[base+r] = wt
			}
		}
	}
	return ws, nil
}

// Replicates returns the batch width R.
func (ws *WeightSet) Replicates() int { return ws.r }

// NumPatterns returns the global pattern count the set was built for; a
// session may only run a WeightSet whose pattern space matches its dataset.
func (ws *WeightSet) NumPatterns() int { return ws.patterns }

// Weight returns replicate r's weight for global pattern i.
func (ws *WeightSet) Weight(i, r int) float64 { return ws.w[i*ws.r+r] }

// Replicate extracts replicate r as a standalone single-replicate WeightSet.
// Batched evaluation over the extracted set reproduces lane r of the full
// batch bit for bit — the property the single-replicate bootstrap runs (and
// the bit-identity acceptance tests) are built on.
func (ws *WeightSet) Replicate(r int) *WeightSet {
	if r < 0 || r >= ws.r {
		panic(fmt.Sprintf("core: replicate %d out of range [0, %d)", r, ws.r))
	}
	out := &WeightSet{r: 1, patterns: ws.patterns, w: make([]float64, ws.patterns)}
	for i := 0; i < ws.patterns; i++ {
		out.w[i] = ws.w[i*ws.r+r]
	}
	return out
}

// Aggregate returns the single-vector WeightSet whose weights are the
// column sums over all replicates. Optimizing branch lengths against the
// aggregate maximizes the summed replicate log likelihood — the documented
// shared-branch-length mode of the bootstrap pipeline (see internal/opt):
// sum_r sum_p w_r[p] log l_p == sum_p (sum_r w_r[p]) log l_p. The sums are
// integer-valued counts, so the aggregation is exact.
func (ws *WeightSet) Aggregate() *WeightSet {
	out := &WeightSet{r: 1, patterns: ws.patterns, w: make([]float64, ws.patterns)}
	for i := 0; i < ws.patterns; i++ {
		s := 0.0
		for r := 0; r < ws.r; r++ {
			s += ws.w[i*ws.r+r]
		}
		out.w[i] = s
	}
	return out
}

// MemoryBytes estimates the set's heap footprint.
func (ws *WeightSet) MemoryBytes() int64 { return int64(len(ws.w)) * 8 }

// lanes returns the replicate-contiguous weight rows of the patterns
// starting at global pattern offset: lanes(off)[j*R+r] is replicate r's
// weight for the j-th pattern of a partition whose Offset is off. This is
// the view the span contexts bind.
func (ws *WeightSet) lanes(offset int) []float64 {
	return ws.w[offset*ws.r:]
}

// weights resolves the WeightSet a reduction runs under: nil is the
// dataset's own weights, and a set over another pattern space is a caller's
// bug (one handed weights from elsewhere checks NumPatterns first).
func (e *Engine) weights(ws *WeightSet) *WeightSet {
	if ws == nil {
		return e.shared.weights
	}
	if ws.patterns != e.Data.TotalPatterns {
		panic(fmt.Sprintf("core: weight set covers %d patterns, dataset has %d", ws.patterns, e.Data.TotalPatterns))
	}
	return ws
}
