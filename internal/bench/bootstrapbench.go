package bench

import (
	"testing"

	"phylo/internal/core"
)

// bootstrapReplicates is the batch width R the bootstrap microbenchmark
// measures at: wide enough that the per-lane reduction cost is visible next
// to the shared site-likelihood computation, narrow enough that the
// R-independent-sessions control finishes quickly.
const bootstrapReplicates = 32

// BootstrapTiming compares the two ways to score R bootstrap replicates of
// one topology at one thread count: a single batched session (newview once,
// one R-wide evaluate sweep) versus R independent single-replicate sessions
// (each paying its own session setup, CLV traversal, and evaluate — the only
// option before weight batching existed). The ns figures are per replicate;
// replicates/sec is the headline each mode sustains.
type BootstrapTiming struct {
	Threads    int `json:"threads"`
	Replicates int `json:"replicates"`
	// BatchedNsPerRep is one batched sweep (full newview traversal plus the
	// R-lane evaluate) divided by R.
	BatchedNsPerRep float64 `json:"batched_ns_per_rep"`
	// IndependentNsPerRep is one dedicated single-replicate session run:
	// session construction, full traversal, weighted evaluate.
	IndependentNsPerRep   float64 `json:"independent_ns_per_rep"`
	BatchedRepsPerSec     float64 `json:"batched_reps_per_sec"`
	IndependentRepsPerSec float64 `json:"independent_reps_per_sec"`
	// Speedup is IndependentNsPerRep / BatchedNsPerRep; CheckReport holds it
	// to a floor at one thread (see bootstrapSpeedupFloor).
	Speedup float64 `json:"speedup"`
}

// bootstrapBench measures BootstrapTiming on the standard small-grid
// benchmark dataset at each thread count. Both modes share one core.Shared
// (hence one schedule) and score the identical topology under the identical
// replicate weight vectors.
func bootstrapBench(rep *MicrobenchReport, grid *workload, threadCounts []int, seed int64) error {
	const R = bootstrapReplicates
	ws, err := core.NewWeightSet(grid.data, R, seed+3)
	if err != nil {
		return err
	}
	rep.BootstrapDataset = grid.name
	for _, t := range threadCounts {
		err := grid.onPool(t, core.BackendAuto, func(r *rig) error {
			// Batched mode: one session; each iteration recomputes the CLVs
			// once and reduces all R replicates in one sweep.
			eng, err := r.session(core.Options{Specialize: true})
			if err != nil {
				return err
			}
			if _, err := eng.LogLikelihoodBatch(ws); err != nil { // warm CLVs and batch buffers
				return err
			}
			batched := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng.InvalidateCLVs()
					if _, err := eng.LogLikelihoodBatch(ws); err != nil {
						b.Fatal(err)
					}
				}
			})

			// Independent control: every replicate is a dedicated session —
			// built, traversed, and evaluated under that replicate's weights,
			// exactly what a bootstrap fleet costs without weight batching.
			// One iteration = one replicate; the replicate index cycles so all
			// weight vectors are used.
			rpl := 0
			independent := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e, err := r.session(core.Options{Specialize: true})
					if err != nil {
						b.Fatal(err)
					}
					if err := e.SetWeightOverride(ws.Replicate(rpl % R)); err != nil {
						b.Fatal(err)
					}
					e.LogLikelihood()
					rpl++
				}
			})

			bt := BootstrapTiming{
				Threads:             t,
				Replicates:          R,
				BatchedNsPerRep:     float64(batched.NsPerOp()) / R,
				IndependentNsPerRep: float64(independent.NsPerOp()),
			}
			if bt.BatchedNsPerRep > 0 {
				bt.BatchedRepsPerSec = 1e9 / bt.BatchedNsPerRep
				bt.Speedup = bt.IndependentNsPerRep / bt.BatchedNsPerRep
			}
			if bt.IndependentNsPerRep > 0 {
				bt.IndependentRepsPerSec = 1e9 / bt.IndependentNsPerRep
			}
			rep.Bootstrap = append(rep.Bootstrap, bt)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
