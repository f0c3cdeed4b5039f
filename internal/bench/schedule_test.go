package bench

import (
	"context"
	"math"
	"sort"
	"testing"

	"phylo"
	"phylo/internal/alignment"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
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

// TestBlockPackIsSkewedWithProteinFirst: the contiguous block pack is the
// assignment a cost-blind split gives. With the mixed workload's protein
// partitions listed first it hands the ~25x costlier protein patterns to the
// first worker, which must then carry at least 1.3x the average op total
// over a whole model optimization at two workers. Op totals are the analytic
// model's and do not depend on how the workers run, so virtual workers
// measure them.
func TestBlockPackIsSkewedWithProteinFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("full model optimization")
	}
	cfg := FigureConfig{Scale: 0.02, Seed: 42}
	ds, err := MixedScheduleDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := append([]alignment.Partition(nil), ds.Parts...)
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].Type == alignment.AA && parts[j].Type != alignment.AA })
	m, err := Run(context.Background(), RunSpec{
		Dataset:        &seqsim.Dataset{Name: ds.Name, Alignment: ds.Alignment, Parts: parts},
		Partitioned:    true,
		PerPartitionBL: true,
		Strategy:       phylo.NewPar,
		Schedule:       schedule.Block,
		Threads:        2,
		Mode:           ModeModelOpt,
		TreeSeed:       cfg.Seed + 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("block pack at 2 workers, protein first: worker op imbalance %.3f", m.Stats.WorkerImbalance)
	if m.Stats.WorkerImbalance < 1.3 {
		t.Errorf("block pack worker op imbalance %v < 1.3 with the protein partitions first", m.Stats.WorkerImbalance)
	}
}
