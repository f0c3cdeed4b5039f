package opt

import (
	"context"
	"slices"
	"testing"

	"phylo/internal/parallel"
)

// opTrace is the part of a virtual run's parallel.Stats that the platform
// model prices: a function of each worker's pattern count per partition,
// its P-matrix bindings and its tip-table decisions, none of which depends
// on where in a partition a worker's patterns lie.
type opTrace struct {
	regions               int64
	totalOps, criticalOps float64
	workerOps             []float64
	kindCritical          [5]float64
	threads               int
	strategy              Strategy
}

// TestCyclicOpTraceGolden holds a cyclic model optimization on the paper's
// target shape (10 DNA partitions x 50 columns, 8 taxa, per-partition branch
// lengths) at 8 and 16 virtual workers, under oldPAR and newPAR, to the op
// trace recorded while cyclic gave each worker every T-th pattern of a
// partition. Contiguous runs of the same per-partition counts must price
// exactly as the stripes did; only the lnL may move, by reassociation.
func TestCyclicOpTraceGolden(t *testing.T) {
	for _, want := range []opTrace{
		{threads: 8, strategy: OldPar, regions: 3462, totalOps: 2.0302805e+08, criticalOps: 2.685437e+07,
			workerOps:    []float64{2.5463298e+07, 2.5458954e+07, 2.54772e+07, 2.5485018e+07, 2.5485018e+07, 2.5454046e+07, 2.5102258e+07, 2.5102258e+07},
			kindCritical: [...]float64{0, 2.619907e+07, 0, 655300, 0}},
		{threads: 8, strategy: NewPar, regions: 448, totalOps: 2.0302805e+08, criticalOps: 2.5550194e+07,
			workerOps:    []float64{2.5463298e+07, 2.5458954e+07, 2.54772e+07, 2.5485018e+07, 2.5485018e+07, 2.5454046e+07, 2.5102258e+07, 2.5102258e+07},
			kindCritical: [...]float64{0, 2.4899128e+07, 0, 651066, 0}},
		{threads: 16, strategy: OldPar, regions: 3462, totalOps: 2.91233362e+08, criticalOps: 1.9990944e+07,
			workerOps:    []float64{1.825193e+07, 1.825193e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8237032e+07, 1.8232688e+07, 1.8232688e+07, 1.8240506e+07, 1.8240506e+07, 1.8209534e+07, 1.7857746e+07, 1.7857746e+07},
			kindCritical: [...]float64{0, 1.9536934e+07, 0, 454010, 0}},
		{threads: 16, strategy: NewPar, regions: 448, totalOps: 2.91233362e+08, criticalOps: 1.833066e+07,
			workerOps:    []float64{1.825193e+07, 1.825193e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8270176e+07, 1.8237032e+07, 1.8232688e+07, 1.8232688e+07, 1.8240506e+07, 1.8240506e+07, 1.8209534e+07, 1.7857746e+07, 1.7857746e+07},
			kindCritical: [...]float64{0, 1.788187e+07, 0, 448790, 0}},
	} {
		sim, err := parallel.NewSim(want.threads)
		if err != nil {
			t.Fatal(err)
		}
		fx := buildGridFixture(t, sim, 42)
		if _, _, err := New(fx.eng, DefaultConfig(want.strategy)).OptimizeModel(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := sim.Stats()
		got := opTrace{threads: want.threads, strategy: want.strategy, regions: st.Regions, totalOps: st.TotalOps,
			criticalOps: st.CriticalOps, workerOps: st.WorkerOps, kindCritical: st.KindCritical}
		if got.regions != want.regions || got.totalOps != want.totalOps || got.criticalOps != want.criticalOps ||
			!slices.Equal(got.workerOps, want.workerOps) || got.kindCritical != want.kindCritical {
			t.Errorf("T=%d %v: op trace\n got %+v\nwant %+v", want.threads, want.strategy, got, want)
		}
	}
}
