package phylo

// Benchmark suite: one benchmark per table/figure of the paper's evaluation
// plus kernel microbenchmarks and the ablations called out in DESIGN.md.
//
// The figure benchmarks run the full analysis of the corresponding paper
// experiment on a geometrically scaled-down dataset (partition COUNT is
// preserved; the load-balance behaviour depends on partition geometry, not
// absolute size) and report, alongside wall time, the quantities the paper's
// analysis is about: synchronization events per run ("regions") and the
// trace-priced virtual runtime on the Nehalem and Barcelona platform models
// ("neh-s", "barc-s"). Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"phylo/internal/alignment"
	bsuite "phylo/internal/bench"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

const benchScale = 0.005 // fraction of the paper's column counts

// runFigureBench executes one paper configuration per iteration.
func runFigureBench(b *testing.B, ds *seqsim.Dataset, strat opt.Strategy, threads int, mode bsuite.Mode, perPartBL bool, partitioned bool) {
	b.Helper()
	var regions int64
	var neh, barc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bsuite.Run(context.Background(), bsuite.RunSpec{
			Dataset:        ds,
			Partitioned:    partitioned,
			PerPartitionBL: perPartBL,
			Strategy:       strat,
			Threads:        threads,
			Mode:           mode,
			Backend:        bsuite.BackendSim,
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

// --- Figure 3: d50_50000 p1000, full search, per-partition BL ---

func BenchmarkFig3SearchOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), opt.OldPar, 8, bsuite.ModeSearch, true, true)
}
func BenchmarkFig3SearchNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), opt.NewPar, 8, bsuite.ModeSearch, true, true)
}
func BenchmarkFig3SearchOld16(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), opt.OldPar, 16, bsuite.ModeSearch, true, true)
}
func BenchmarkFig3SearchNew16(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), opt.NewPar, 16, bsuite.ModeSearch, true, true)
}

// --- Figure 4: d100_50000 p1000 ---

func BenchmarkFig4SearchOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 100, 50000, 1000, 43), opt.OldPar, 8, bsuite.ModeSearch, true, true)
}
func BenchmarkFig4SearchNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 100, 50000, 1000, 43), opt.NewPar, 8, bsuite.ModeSearch, true, true)
}

// --- Figure 5: r125_19839 (mammalian DNA stand-in) ---

func BenchmarkFig5SearchOld8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R125Spec, 44), opt.OldPar, 8, bsuite.ModeSearch, true, true)
}
func BenchmarkFig5SearchNew8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R125Spec, 44), opt.NewPar, 8, bsuite.ModeSearch, true, true)
}

// --- Figure 6: unpartitioned vs new vs old speedup components ---

func BenchmarkFig6Unpartitioned8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), opt.NewPar, 8, bsuite.ModeSearch, false, false)
}
func BenchmarkFig6New8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), opt.NewPar, 8, bsuite.ModeSearch, true, true)
}
func BenchmarkFig6Old8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 50000, 1000, 42), opt.OldPar, 8, bsuite.ModeSearch, true, true)
}

// --- Text result T1: joint branch-length estimate (paper: ~5%) ---

func BenchmarkJointBLOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 45), opt.OldPar, 8, bsuite.ModeModelOpt, false, true)
}
func BenchmarkJointBLNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 45), opt.NewPar, 8, bsuite.ModeModelOpt, false, true)
}

// --- Text result T2: model optimization, per-partition BL (paper: 5-10%) ---

func BenchmarkModelOptOld8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 46), opt.OldPar, 8, bsuite.ModeModelOpt, true, true)
}
func BenchmarkModelOptNew8(b *testing.B) {
	runFigureBench(b, gridDS(b, 50, 20000, 1000, 46), opt.NewPar, 8, bsuite.ModeModelOpt, true, true)
}

// --- Text result T3: protein datasets (paper: 5-10%) ---

func BenchmarkProteinR26Old8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R26Spec, 47), opt.OldPar, 8, bsuite.ModeSearch, true, true)
}
func BenchmarkProteinR26New8(b *testing.B) {
	runFigureBench(b, realDS(b, seqsim.R26Spec, 47), opt.NewPar, 8, bsuite.ModeSearch, true, true)
}

// --- Kernel microbenchmarks ---

type kernelFixture struct {
	eng  *core.Engine
	tr   *tree.Tree
	exec parallel.Executor
}

func kernelBench(b *testing.B, dt alignment.DataType, patterns int, specialize bool) *kernelFixture {
	b.Helper()
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	tr, err := tree.Random(names, 1, tree.RandomOptions{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var m *model.Model
	if dt == alignment.DNA {
		m, err = model.GTR(nil, nil, 4, 0.8)
	} else {
		m, err = model.SYN20(4, 0.8)
	}
	if err != nil {
		b.Fatal(err)
	}
	a, parts, err := seqsim.Simulate(tr, []*model.Model{m}, []int{patterns}, seqsim.Options{Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{KeepDuplicates: true})
	if err != nil {
		b.Fatal(err)
	}
	exec := parallel.NewSequential()
	eng, err := newEngine(d, tr, []*model.Model{m}, exec, core.Options{Specialize: specialize})
	if err != nil {
		b.Fatal(err)
	}
	return &kernelFixture{eng: eng, tr: tr, exec: exec}
}

// BenchmarkNewviewDNAGamma measures one full-tree traversal (18 newviews over
// 2000 patterns x 4 categories) with the unrolled 4-state kernel.
func BenchmarkNewviewDNAGamma(b *testing.B) {
	fx := kernelBench(b, alignment.DNA, 2000, true)
	root := fx.tr.Tips[0].Back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.InvalidateCLVs()
		fx.eng.Traverse(root, false, nil)
	}
	b.ReportMetric(float64(2000*fx.tr.NumInner()), "patterns/op")
}

// BenchmarkNewviewDNAGeneric is the kernel-specialization ablation: the same
// traversal through the generic k-state kernel.
func BenchmarkNewviewDNAGeneric(b *testing.B) {
	fx := kernelBench(b, alignment.DNA, 2000, false)
	root := fx.tr.Tips[0].Back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.InvalidateCLVs()
		fx.eng.Traverse(root, false, nil)
	}
}

// BenchmarkNewviewAAGamma measures the 20-state kernel: ~25x the multiply-adds
// per column of the DNA kernel (the paper's protein-data argument prices ops;
// the time per op is its own measurement, TestProteinMaddFloor).
func BenchmarkNewviewAAGamma(b *testing.B) {
	fx := kernelBench(b, alignment.AA, 400, true)
	root := fx.tr.Tips[0].Back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.InvalidateCLVs()
		fx.eng.Traverse(root, false, nil)
	}
}

// BenchmarkEvaluateDNA measures the log-likelihood reduction at the root.
func BenchmarkEvaluateDNA(b *testing.B) {
	fx := kernelBench(b, alignment.DNA, 2000, true)
	root := fx.tr.Tips[0].Back
	fx.eng.TraverseRoot(root, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.Evaluate(root, nil)
	}
}

// BenchmarkBranchDerivatives measures one Newton-Raphson derivative
// iteration over a prepared sumtable.
func BenchmarkBranchDerivatives(b *testing.B) {
	fx := kernelBench(b, alignment.DNA, 2000, true)
	root := fx.tr.Tips[0].Back
	fx.eng.TraverseRoot(root, false, nil)
	fx.eng.PrepareSumtable(root, nil)
	z := []float64{0.1}
	d1 := make([]float64, 1)
	d2 := make([]float64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.BranchDerivatives(z, nil, d1, d2)
	}
}

// innerBranch returns a branch with an inner node at both ends: there the
// 20-state evaluate and sumtable pay a P application or eigenbasis projection
// per end, with no tip table to read instead.
func innerBranch(b *testing.B, tr *tree.Tree) *tree.Node {
	b.Helper()
	for _, p := range tr.Branches() {
		if !p.IsTip() && !p.Back.IsTip() {
			return p
		}
	}
	b.Fatal("no inner branch")
	return nil
}

// BenchmarkEvaluateAA measures the 20-state reduction over 400 patterns at an
// inner branch (one P application per pattern and category).
func BenchmarkEvaluateAA(b *testing.B) {
	fx := kernelBench(b, alignment.AA, 400, true)
	p := innerBranch(b, fx.tr)
	fx.eng.TraverseRoot(p, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.Evaluate(p, nil)
	}
}

// BenchmarkSumtableAA measures the 20-state sumtable at an inner branch: both
// eigenbasis projections per pattern and category.
func BenchmarkSumtableAA(b *testing.B) {
	fx := kernelBench(b, alignment.AA, 400, true)
	p := innerBranch(b, fx.tr)
	fx.eng.TraverseRoot(p, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.PrepareSumtable(p, nil)
	}
}

// BenchmarkBranchDerivativesAA measures one derivative iteration over the
// 80-term sumtable rows of 400 protein patterns.
func BenchmarkBranchDerivativesAA(b *testing.B) {
	fx := kernelBench(b, alignment.AA, 400, true)
	p := innerBranch(b, fx.tr)
	fx.eng.TraverseRoot(p, false, nil)
	fx.eng.PrepareSumtable(p, nil)
	z, d1, d2 := []float64{0.1}, make([]float64, 1), make([]float64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.BranchDerivatives(z, nil, d1, d2)
	}
}

// BenchmarkPoolVsSequentialWallClock exercises the real goroutine pool on the
// host (2 threads) against the sequential baseline for a full traversal —
// the honest wall-clock data point on this machine.
func BenchmarkPoolTraversal2Threads(b *testing.B) {
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	tr, _ := tree.Random(names, 1, tree.RandomOptions{Seed: 9})
	m, _ := model.GTR(nil, nil, 4, 0.8)
	a, parts, err := seqsim.Simulate(tr, []*model.Model{m}, []int{20000}, seqsim.Options{Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	d, _ := alignment.Compress(a, parts, alignment.CompressOptions{KeepDuplicates: true})
	pool, err := parallel.NewPool(2)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	eng, err := newEngine(d, tr, []*model.Model{m}, pool, core.Options{Specialize: true})
	if err != nil {
		b.Fatal(err)
	}
	root := tr.Tips[0].Back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.InvalidateCLVs()
		eng.Traverse(root, false, nil)
	}
}

// --- Ablation: the convergence boolean vector (DESIGN.md) ---

func convergenceMaskBench(b *testing.B, disable bool) {
	ds := gridDS(b, 20, 20000, 1000, 48)
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*model.Model, len(d.Parts))
	for i, p := range d.Parts {
		models[i], err = model.DefaultFor(p, 4, 1.0)
		if err != nil {
			b.Fatal(err)
		}
	}
	var critical float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, _ := parallel.NewSim(8)
		tr, _ := tree.Random(ds.Alignment.Names, len(d.Parts), tree.RandomOptions{Seed: 77})
		eng, err := newEngine(d, tr, models, sim, core.Options{Specialize: true})
		if err != nil {
			b.Fatal(err)
		}
		cfg := opt.DefaultConfig(opt.NewPar)
		cfg.DisableConvergenceMask = disable
		o := opt.New(eng, cfg)
		b.StartTimer()
		o.SmoothAll(context.Background())
		critical = sim.Stats().CriticalOps
	}
	b.ReportMetric(critical, "criticalOps")
}

func BenchmarkAblationConvergenceMaskOn(b *testing.B)  { convergenceMaskBench(b, false) }
func BenchmarkAblationConvergenceMaskOff(b *testing.B) { convergenceMaskBench(b, true) }

// --- Ablation: cyclic vs block vs weighted pattern schedule (DESIGN.md) ---

func scheduleBench(b *testing.B, strat schedule.Strategy) {
	// Mixed narrow-region workload: per-partition branch smoothing, where
	// the block schedule concentrates each partition's columns on few
	// workers while cyclic spreads them (the paper's Sec. IV design choice).
	ds := gridDS(b, 20, 20000, 1000, 49)
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*model.Model, len(d.Parts))
	for i, p := range d.Parts {
		models[i], err = model.DefaultFor(p, 4, 1.0)
		if err != nil {
			b.Fatal(err)
		}
	}
	var imbal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, _ := parallel.NewSim(8)
		tr, _ := tree.Random(ds.Alignment.Names, len(d.Parts), tree.RandomOptions{Seed: 78})
		eng, err := newEngine(d, tr, models, sim, core.Options{Specialize: true, Schedule: strat})
		if err != nil {
			b.Fatal(err)
		}
		cfg := opt.DefaultConfig(opt.OldPar) // narrow regions stress the choice
		o := opt.New(eng, cfg)
		b.StartTimer()
		o.SmoothAll(context.Background())
		imbal = sim.Stats().Imbalance(8)
	}
	b.ReportMetric(imbal, "imbalance")
}

func BenchmarkAblationCyclicSchedule(b *testing.B)   { scheduleBench(b, schedule.Cyclic) }
func BenchmarkAblationBlockSchedule(b *testing.B)    { scheduleBench(b, schedule.Block) }
func BenchmarkAblationWeightedSchedule(b *testing.B) { scheduleBench(b, schedule.Weighted) }

// newEngine builds the shared state for (d, the models' category count,
// exec's worker count) and opens one session over it.
func newEngine(d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec parallel.Executor, opts core.Options) (*core.Engine, error) {
	sh, err := core.NewSharedWith(d, models[0].NumCats, exec.Threads(), core.BackendAuto)
	if err != nil {
		return nil, err
	}
	return core.NewSession(sh, tr, models, exec, opts)
}
