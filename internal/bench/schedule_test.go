package bench

import (
	"context"
	"math"
	"testing"

	"phylo"
	"phylo/internal/schedule"
)

// mixedRun executes the schedule-comparison workload (mixed DNA+AA
// partitioned model optimization on 8 virtual workers) under one strategy.
func mixedRun(tb testing.TB, strat schedule.Strategy) *Measurement {
	tb.Helper()
	cfg := FigureConfig{Scale: 0.02, Seed: 42}
	ds, err := MixedScheduleDataset(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Run(context.Background(), RunSpec{
		Dataset:        ds,
		Partitioned:    true,
		PerPartitionBL: true,
		Strategy:       phylo.NewPar,
		Schedule:       strat,
		Threads:        8,
		Mode:           ModeModelOpt,
		TreeSeed:       142,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestWeightedScheduleBeatsCyclicOnMixedData is the acceptance check for the
// weighted strategy: on a mixed DNA+AA partitioned dataset, the max/avg
// cumulative per-worker op imbalance under Weighted must not exceed Cyclic's,
// and both must compute the identical likelihood.
func TestWeightedScheduleBeatsCyclicOnMixedData(t *testing.T) {
	if testing.Short() {
		t.Skip("full model optimization run")
	}
	cyc := mixedRun(t, schedule.Cyclic)
	wtd := mixedRun(t, schedule.Weighted)
	// Reduction order differs between assignments, so agreement is up to
	// floating-point reassociation, not bit-for-bit.
	if diff := math.Abs(wtd.LnL - cyc.LnL); diff > 1e-9*math.Abs(cyc.LnL) {
		t.Errorf("schedule changed the optimum: weighted lnL %v, cyclic %v", wtd.LnL, cyc.LnL)
	}
	t.Logf("worker imbalance: cyclic %.5f, weighted %.5f", cyc.Stats.WorkerImbalance, wtd.Stats.WorkerImbalance)
	if wtd.Stats.WorkerImbalance > cyc.Stats.WorkerImbalance+1e-9 {
		t.Errorf("weighted worker imbalance %v exceeds cyclic %v on mixed DNA+AA data",
			wtd.Stats.WorkerImbalance, cyc.Stats.WorkerImbalance)
	}
	if cyc.Stats.WorkerImbalance < 1 || wtd.Stats.WorkerImbalance < 1 {
		t.Errorf("imbalance below 1: cyclic %v, weighted %v", cyc.Stats.WorkerImbalance, wtd.Stats.WorkerImbalance)
	}
}

// benchmarkSchedule reports the per-strategy imbalance as benchmark metrics
// (run with `go test -bench=ScheduleMixed ./internal/bench/`).
func benchmarkSchedule(b *testing.B, strat schedule.Strategy) {
	var imbal, critical float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mixedRun(b, strat)
		imbal = m.Stats.WorkerImbalance
		critical = m.Stats.CriticalOps
	}
	b.ReportMetric(imbal, "worker-imbalance")
	b.ReportMetric(critical, "criticalOps")
}

func BenchmarkScheduleMixedCyclic(b *testing.B)   { benchmarkSchedule(b, schedule.Cyclic) }
func BenchmarkScheduleMixedBlock(b *testing.B)    { benchmarkSchedule(b, schedule.Block) }
func BenchmarkScheduleMixedWeighted(b *testing.B) { benchmarkSchedule(b, schedule.Weighted) }
