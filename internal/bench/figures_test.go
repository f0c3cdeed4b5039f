package bench

// The figure benchmarks: one per figure and text result of the paper's
// evaluation. Each runs the full analysis of the corresponding experiment
// through Run on a geometrically scaled-down dataset (partition COUNT is
// preserved; the load-balance behaviour depends on partition geometry, not
// absolute size) and reports, alongside wall time, the quantities the paper's
// analysis is about: synchronization events per run ("regions") and the
// trace-priced virtual runtime on the Nehalem and Barcelona platform models
// ("neh-s", "barc-s"). Run with:
//
//	go test -run '^$' -bench 'Fig|JointBL|ModelOpt|ProteinR26' ./internal/bench/

import (
	"context"
	"testing"

	"phylo"
	"phylo/internal/seqsim"
)

const benchScale = 0.005 // fraction of the paper's column counts

func gridDS(b *testing.B, taxa, sites, partLen int, seed int64) *seqsim.Dataset {
	b.Helper()
	ds, err := seqsim.GridDataset(taxa, sites, partLen, benchScale, seed)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func realDS(b *testing.B, spec seqsim.RealWorldSpec, seed int64) *seqsim.Dataset {
	b.Helper()
	ds, err := seqsim.RealWorldDataset(spec, benchScale, seed)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// runFigureBench executes one paper configuration per iteration.
func runFigureBench(b *testing.B, ds *seqsim.Dataset, strat phylo.Strategy, threads int, mode Mode, perPartBL bool, partitioned bool) {
	b.Helper()
	var regions int64
	var neh, barc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Run(context.Background(), RunSpec{
			Dataset:        ds,
			Partitioned:    partitioned,
			PerPartitionBL: perPartBL,
			Strategy:       strat,
			Threads:        threads,
			Mode:           mode,
			TreeSeed:       1142,
			SearchRounds:   1,
			SearchRadius:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
		regions = m.Stats.Regions
		neh = m.PlatformSeconds["Nehalem"]
		barc = m.PlatformSeconds["Barcelona"]
	}
	b.ReportMetric(float64(regions), "regions")
	b.ReportMetric(neh, "neh-s")
	b.ReportMetric(barc, "barc-s")
}

// --- Figure 3: d50_50000 p1000, full search, per-partition BL ---

func BenchmarkFig3SearchOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), phylo.OldPar, 8, ModeSearch, true, true)
}
func BenchmarkFig3SearchNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), phylo.NewPar, 8, ModeSearch, true, true)
}
func BenchmarkFig3SearchOld16(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), phylo.OldPar, 16, ModeSearch, true, true)
}
func BenchmarkFig3SearchNew16(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), phylo.NewPar, 16, ModeSearch, true, true)
}

// --- Figure 4: d100_50000 p1000 ---

func BenchmarkFig4SearchOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 100, 50000, 1000, 43), phylo.OldPar, 8, ModeSearch, true, true)
}
func BenchmarkFig4SearchNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 100, 50000, 1000, 43), phylo.NewPar, 8, ModeSearch, true, true)
}

// --- Figure 5: r125_19839 (mammalian DNA stand-in) ---

func BenchmarkFig5SearchOld8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R125Spec, 44), phylo.OldPar, 8, ModeSearch, true, true)
}
func BenchmarkFig5SearchNew8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R125Spec, 44), phylo.NewPar, 8, ModeSearch, true, true)
}

// --- Figure 6: unpartitioned vs new vs old speedup components ---

func BenchmarkFig6Unpartitioned8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), phylo.NewPar, 8, ModeSearch, false, false)
}
func BenchmarkFig6New8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), phylo.NewPar, 8, ModeSearch, true, true)
}
func BenchmarkFig6Old8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), phylo.OldPar, 8, ModeSearch, true, true)
}

// --- Text result T1: joint branch-length estimate (paper: ~5%) ---

func BenchmarkJointBLOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 45), phylo.OldPar, 8, ModeModelOpt, false, true)
}
func BenchmarkJointBLNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 45), phylo.NewPar, 8, ModeModelOpt, false, true)
}

// --- Text result T2: model optimization, per-partition BL (paper: 5-10%) ---

func BenchmarkModelOptOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 46), phylo.OldPar, 8, ModeModelOpt, true, true)
}
func BenchmarkModelOptNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 46), phylo.NewPar, 8, ModeModelOpt, true, true)
}

// --- Text result T3: protein datasets (paper: 5-10%) ---

func BenchmarkProteinR26Old8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R26Spec, 47), phylo.OldPar, 8, ModeSearch, true, true)
}
func BenchmarkProteinR26New8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R26Spec, 47), phylo.NewPar, 8, ModeSearch, true, true)
}
