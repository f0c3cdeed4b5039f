package bench

import "fmt"

// CheckReport is the CI bench gate: it holds one microbenchmark report to
// the three floors that are ratios or fractions *within* the run, so they
// mean the same on any host and need no stored baseline. It returns one
// message per violated floor; sections a report does not carry are skipped.
// Absolute ns/op are not judged here — the end-to-end benchmark in
// benchmark/ decides those, against the parent commit on the same box.
func CheckReport(rep *MicrobenchReport) []string {
	var violations []string
	// Kernel backend: generic-vs-fused newview speedup at one thread. Only
	// fires when both backends were actually measured.
	for _, bt := range rep.BackendCase {
		if bt.Threads == 1 && bt.GenericNsOp > 0 && bt.FusedNsOp > 0 && bt.Speedup < backendSpeedupFloor {
			violations = append(violations,
				fmt.Sprintf("backend @ 1 thread: fused newview speedup %.2fx below the %.1fx floor (generic %.0f ns/op, fused %.0f ns/op)",
					bt.Speedup, backendSpeedupFloor, bt.GenericNsOp, bt.FusedNsOp))
		}
	}
	// Bootstrap batching: batched-vs-R-independent-sessions speedup at one
	// thread. Only fires when both modes were measured.
	for _, bt := range rep.Bootstrap {
		if bt.Threads == 1 && bt.BatchedNsPerRep > 0 && bt.IndependentNsPerRep > 0 && bt.Speedup < bootstrapSpeedupFloor {
			violations = append(violations,
				fmt.Sprintf("bootstrap @ 1 thread: batched speedup %.2fx below the %.1fx floor (batched %.0f ns/rep, independent %.0f ns/rep)",
					bt.Speedup, bootstrapSpeedupFloor, bt.BatchedNsPerRep, bt.IndependentNsPerRep))
		}
	}
	// Stealing pathology: on the honestly priced microbenchmark workload,
	// more than half of all patterns migrating means the static pack is
	// systematically mispriced — stealing is papering over a scheduling bug,
	// not absorbing noise. It only fires when the workers actually ran in
	// parallel: with Threads > Cores the OS time-shares workers and whichever
	// runs first legitimately swallows the stragglers' deques.
	for _, sm := range rep.Steal {
		if sm.Threads <= sm.Cores && sm.MigratedFraction > stealMigrationCeiling {
			violations = append(violations,
				fmt.Sprintf("steal @ %d threads (%d cores): %.0f%% of patterns migrated (ceiling %.0f%%) — the static pack is mispriced, fix the cost model",
					sm.Threads, sm.Cores, 100*sm.MigratedFraction, 100*stealMigrationCeiling))
		}
	}
	return violations
}

// stealMigrationCeiling is the migrated-pattern fraction above which the
// bench gate treats stealing as a symptom rather than a cure.
const stealMigrationCeiling = 0.5

// backendSpeedupFloor is the minimum generic-vs-fused newview speedup at one
// thread: the fused backend's cat-major layout and unrolled 4-state kernels
// must at least halve the oracle's traversal time (measured best-of-three per
// backend; the ratio sits around 2.15x on current hardware).
const backendSpeedupFloor = 2.0

// bootstrapSpeedupFloor is the minimum batched-vs-independent bootstrap
// throughput ratio at one thread: scoring R replicates in one R-wide batched
// session must be at least twice as fast per replicate as running R dedicated
// single-replicate sessions (the ratio sits far above that in practice —
// the batched sweep pays one newview traversal for all R replicates).
const bootstrapSpeedupFloor = 2.0
