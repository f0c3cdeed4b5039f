package bench

import (
	"context"
	"math"
	"testing"
)

// TestStealingBoundsIntraRegionTailLatency is the acceptance gate for the
// work-stealing subsystem: on the mixed DNA+AA dataset with its protein
// partitions first under the block schedule, the steal-enabled run's
// end-state measured per-worker time imbalance (probed on the real goroutine
// pool) must not exceed the static block pack's, stealing must actually have
// fired, and the likelihood must agree with the static run to reassociation
// tolerance.
func TestStealingBoundsIntraRegionTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("full model optimization runs on a real pool")
	}
	if raceEnabled {
		// The gate compares measured wall time per worker; race-detector
		// instrumentation distorts the per-chunk costs the comparison relies
		// on. The stealing concurrency itself is race-tested in
		// internal/steal and internal/core.
		t.Skip("timing-driven acceptance gate is not meaningful under the race detector")
	}
	cfg := FigureConfig{Scale: 0.02, Seed: 42}
	comp, results, err := stealComparisonRun(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The imbalance clause is only meaningful when the workers genuinely run
	// in parallel: per-worker *work* time (barrier waits excluded) on an
	// oversubscribed host reflects which goroutines the OS happened to run,
	// not load balance — the same reason TestStealMigrationCeiling only runs
	// at a thread count the host runs in parallel. The remaining clauses
	// (determinism, steal activity, metric sanity) hold everywhere.
	gateImbalance := comp.Threads <= comp.Cores
	// Wall-clock per-worker times on a shared CI box are noisy; a spurious
	// loss must reproduce on a fresh comparison before it fails the gate.
	const slack = 1.02
	if gateImbalance && comp.StealTimeImbalance > comp.StaticTimeImbalance*slack {
		t.Logf("steal %v above static %v on the first run; re-measuring once",
			comp.StealTimeImbalance, comp.StaticTimeImbalance)
		if comp, results, err = stealComparisonRun(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("end-state time imbalance: block-static %.4f, block+steal %.4f (%.0f steals, %.0f patterns, %.1f%% migrated; %d workers / %d cores)",
		comp.StaticTimeImbalance, comp.StealTimeImbalance, comp.Steals, comp.MigratedPatterns, 100*comp.MigratedFraction, comp.Threads, comp.Cores)
	if !gateImbalance {
		t.Logf("imbalance clause skipped: %d workers time-share %d cores", comp.Threads, comp.Cores)
	} else if comp.StealTimeImbalance > comp.StaticTimeImbalance*slack {
		t.Errorf("steal-enabled end-state time imbalance %v exceeds static block %v — stealing failed to bound the intra-region tail",
			comp.StealTimeImbalance, comp.StaticTimeImbalance)
	}
	if comp.Steals == 0 {
		t.Error("the probe never stole on a skewed block pack")
	}
	if comp.StealTimeImbalance < 1 || comp.StaticTimeImbalance < 1 {
		t.Errorf("imbalance below 1: %+v", comp)
	}
	static := results[false]
	if comp.LnLAbsDiff > 1e-9*math.Abs(static.LnL) {
		t.Errorf("stealing changed the optimum: |dlnL| = %v on lnL %v", comp.LnLAbsDiff, static.LnL)
	}
	if comp.MigratedFraction < 0 || comp.MigratedFraction > 1 {
		t.Errorf("migrated fraction %v outside [0, 1]", comp.MigratedFraction)
	}
}

// TestStealComparisonStaticPackIsSkewed: the steal comparison has skew to
// absorb. Its static side — protein partitions first, block-packed — must
// leave the first of two workers at least 1.3x the average op total over the
// whole model optimization. Op totals are the analytic model's and do not
// depend on how the workers run, so virtual workers measure them.
func TestStealComparisonStaticPackIsSkewed(t *testing.T) {
	if testing.Short() {
		t.Skip("full model optimization")
	}
	cfg := FigureConfig{Scale: 0.02, Seed: 42}
	ds, err := stealDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := stealSpec(ds, cfg, 2, false)
	spec.Pool, spec.ProbeRegions = false, 0
	m, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("static block pack at 2 workers: worker op imbalance %.3f", m.Stats.WorkerImbalance)
	if m.Stats.WorkerImbalance < 1.3 {
		t.Errorf("static block pack worker op imbalance %v < 1.3: the steal comparison has no skew to absorb", m.Stats.WorkerImbalance)
	}
}
