package phylo

// Benchmark suite: kernel microbenchmarks and the ablations called out in
// DESIGN.md. The per-figure benchmarks of the paper's evaluation live with
// the figure harness, in internal/bench (go test -bench Fig ./internal/bench/).
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
	"phylo/internal/steal"
	"phylo/internal/tree"
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

// --- Kernel microbenchmarks ---

type kernelFixture struct {
	eng  *core.Engine
	tr   *tree.Tree
	exec *parallel.Pool
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
		fx.eng.Tree.ClearX()
		fx.eng.TraverseRoot(root)
	}
	b.ReportMetric(float64(2000*len(fx.tr.Inner)), "patterns/op")
}

// BenchmarkNewviewDNAGeneric is the kernel-specialization ablation: the same
// traversal through the generic k-state kernel.
func BenchmarkNewviewDNAGeneric(b *testing.B) {
	fx := kernelBench(b, alignment.DNA, 2000, false)
	root := fx.tr.Tips[0].Back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.Tree.ClearX()
		fx.eng.TraverseRoot(root)
	}
}

// BenchmarkNewviewAAGamma measures the 20-state kernel: ~25x the multiply-adds
// per column of the DNA kernel (the paper's protein-data argument prices ops;
// the time per op is its own measurement, TestProteinMaddFloor). Where
// core.NewviewRowsKernel runs, each pattern's categories are one call of
// newview20_amd64.s: 1.29-1.84 ms on the 2-vCPU reference box against
// 2.14-2.76 ms on the scalar loop of one ApplyCols call a P application
// (TestNewviewRowsFloor holds the ratio).
func BenchmarkNewviewAAGamma(b *testing.B) {
	fx := kernelBench(b, alignment.AA, 400, true)
	root := fx.tr.Tips[0].Back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.Tree.ClearX()
		fx.eng.TraverseRoot(root)
	}
}

// BenchmarkEvaluateDNA measures the log-likelihood reduction at the root.
func BenchmarkEvaluateDNA(b *testing.B) {
	fx := kernelBench(b, alignment.DNA, 2000, true)
	root := fx.tr.Tips[0].Back
	fx.eng.TraverseRoot(root)
	var lnl [1]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.Evaluate(root, nil, nil, lnl[:], nil)
	}
}

// BenchmarkBranchDerivatives measures one Newton-Raphson derivative
// iteration over a current sumtable (the untimed first call projects it).
func BenchmarkBranchDerivatives(b *testing.B) {
	fx := kernelBench(b, alignment.DNA, 2000, true)
	root := fx.tr.Tips[0].Back
	z := []float64{0.1}
	d1 := make([]float64, 1)
	d2 := make([]float64, 1)
	fx.eng.BranchDerivatives(root, z, nil, nil, d1, d2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.BranchDerivatives(root, z, nil, nil, d1, d2, nil)
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
	fx.eng.TraverseRoot(p)
	var lnl [1]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.Evaluate(p, nil, nil, lnl[:], nil)
	}
}

// BenchmarkSumtableAA measures the 20-state sumtable at an inner branch: both
// eigenbasis projections per pattern and category. Each call is a derivative
// region at the other end of the branch than the last, which lists no step
// and projects every time.
func BenchmarkSumtableAA(b *testing.B) {
	fx := kernelBench(b, alignment.AA, 400, true)
	p := innerBranch(b, fx.tr)
	fx.eng.TraverseRoot(p)
	z := []float64{0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = p.Back
		fx.eng.BranchDerivatives(p, z, nil, nil, nil, nil, nil)
	}
}

// BenchmarkBranchDerivativesAA measures one derivative iteration over the
// 80-term sumtable rows of 400 protein patterns.
func BenchmarkBranchDerivativesAA(b *testing.B) {
	fx := kernelBench(b, alignment.AA, 400, true)
	p := innerBranch(b, fx.tr)
	z, d1, d2 := []float64{0.1}, make([]float64, 1), make([]float64, 1)
	fx.eng.BranchDerivatives(p, z, nil, nil, d1, d2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.BranchDerivatives(p, z, nil, nil, d1, d2, nil)
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
		eng.Tree.ClearX()
		eng.TraverseRoot(root)
	}
}

// --- Ablation: the convergence boolean vector (DESIGN.md) ---

func convergenceMaskBench(b *testing.B, disable bool) {
	ds := gridDS(b, 20, 20000, 1000, 48)
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	models, err := model.DefaultsFor(d.Parts, 4, 1.0)
	if err != nil {
		b.Fatal(err)
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
	models, err := model.DefaultsFor(d.Parts, 4, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	var imbal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, _ := parallel.NewSim(8)
		tr, _ := tree.Random(ds.Alignment.Names, len(d.Parts), tree.RandomOptions{Seed: 78})
		sh, err := core.NewSharedWith(d, 4, 8, core.BackendAuto)
		if err != nil {
			b.Fatal(err)
		}
		sched, err := sh.ScheduleFor(strat)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewSession(sh, tr, models, sim, core.Options{Specialize: true, Layout: steal.NewLayout(sched, 0)})
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
func newEngine(d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec *parallel.Pool, opts core.Options) (*core.Engine, error) {
	sh, err := core.NewSharedWith(d, models[0].NumCats, exec.Threads(), core.BackendAuto)
	if err != nil {
		return nil, err
	}
	return core.NewSession(sh, tr, models, exec, opts)
}
