package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// fixture builds a partitioned random dataset plus an engine.
type fixture struct {
	eng *core.Engine
	tr  *tree.Tree
	d   *alignment.CompressedData
}

func taxaNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

func buildFixture(t *testing.T, nTaxa, nSites, partLen int, perPartBL bool, exec parallel.Executor, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const chars = "ACGT"
	names := taxaNames(nTaxa)
	seqs := make([][]byte, nTaxa)
	for i := range seqs {
		row := make([]byte, nSites)
		for j := range row {
			row[j] = chars[rng.Intn(4)]
		}
		seqs[i] = row
	}
	a, err := alignment.New(names, seqs)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := alignment.UniformPartitions(a, alignment.DNA, partLen)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.Model, len(d.Parts))
	for i := range models {
		m, err := model.GTR(nil, nil, 4, 0.4+0.4*float64(i%4))
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	zSlots := 1
	if perPartBL && len(d.Parts) > 1 {
		zSlots = len(d.Parts)
	}
	tr, err := tree.Random(names, zSlots, tree.RandomOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(d, tr, models, exec, core.Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, tr: tr, d: d}
}

func TestOptimizeBranchImprovesAndZeroesGradient(t *testing.T) {
	for _, perPart := range []bool{false, true} {
		fx := buildFixture(t, 8, 60, 20, perPart, parallel.NewSequential(), 11)
		o := New(fx.eng, DefaultConfig(NewPar))
		before := fx.eng.LogLikelihood()
		root := fx.tr.Tips[0].Back
		o.OptimizeBranch(root)
		after, _ := fx.eng.Evaluate(root, nil)
		if after < before-1e-9 {
			t.Errorf("perPart=%v: lnL decreased %v -> %v", perPart, before, after)
		}
		// At the optimum the gradient must vanish for every partition.
		fx.eng.PrepareSumtable(root, nil)
		n := fx.eng.NumPartitions()
		zs := make([]float64, n)
		for ip := 0; ip < n; ip++ {
			zs[ip] = root.Z[fx.eng.BranchSlot(ip)]
		}
		d1 := make([]float64, n)
		d2 := make([]float64, n)
		fx.eng.BranchDerivatives(zs, nil, d1, d2)
		if perPart {
			for ip := 0; ip < n; ip++ {
				if math.Abs(d1[ip]) > 1e-2 && zs[ip] > o.Cfg.MinBranch*2 && zs[ip] < o.Cfg.MaxBranch/2 {
					t.Errorf("perPart=%v partition %d: gradient %v not ~0 at z=%v", perPart, ip, d1[ip], zs[ip])
				}
			}
		} else {
			sum := 0.0
			for _, v := range d1 {
				sum += v
			}
			if math.Abs(sum) > 1e-2 && zs[0] > o.Cfg.MinBranch*2 && zs[0] < o.Cfg.MaxBranch/2 {
				t.Errorf("joint: total gradient %v not ~0", sum)
			}
		}
	}
}

func TestOldParNewParSameOptimum(t *testing.T) {
	// The two strategies must find the same branch lengths and likelihood;
	// they differ only in region decomposition.
	seqA := parallel.NewSequential()
	seqB := parallel.NewSequential()
	fxOld := buildFixture(t, 10, 80, 20, true, seqA, 23)
	fxNew := buildFixture(t, 10, 80, 20, true, seqB, 23)
	oOld := New(fxOld.eng, DefaultConfig(OldPar))
	oNew := New(fxNew.eng, DefaultConfig(NewPar))
	lOld := oOld.SmoothAll(context.Background())
	lNew := oNew.SmoothAll(context.Background())
	if math.Abs(lOld-lNew) > 1e-4*math.Abs(lOld) {
		t.Errorf("smoothed lnL differs: oldPAR %v vs newPAR %v", lOld, lNew)
	}
	// Branch lengths agree.
	bOld := fxOld.tr.Branches()
	bNew := fxNew.tr.Branches()
	for i := range bOld {
		for k := range bOld[i].Z {
			if math.Abs(bOld[i].Z[k]-bNew[i].Z[k]) > 1e-3*(bOld[i].Z[k]+1e-6) {
				t.Errorf("branch %d slot %d: %v vs %v", i, k, bOld[i].Z[k], bNew[i].Z[k])
			}
		}
	}
}

func TestNewParUsesFarFewerRegions(t *testing.T) {
	// The paper's central claim, in miniature: with per-partition branch
	// lengths and many partitions, newPAR needs dramatically fewer
	// synchronization events than oldPAR for the same optimization.
	simOld, _ := parallel.NewSim(8)
	simNew, _ := parallel.NewSim(8)
	fxOld := buildFixture(t, 10, 120, 12, true, simOld, 31) // 10 partitions
	fxNew := buildFixture(t, 10, 120, 12, true, simNew, 31)
	oOld := New(fxOld.eng, DefaultConfig(OldPar))
	oNew := New(fxNew.eng, DefaultConfig(NewPar))
	oOld.SmoothAll(context.Background())
	oNew.SmoothAll(context.Background())
	rOld := simOld.Stats().Regions
	rNew := simNew.Stats().Regions
	if rNew*2 >= rOld {
		t.Errorf("newPAR regions %d not substantially fewer than oldPAR %d", rNew, rOld)
	}
	// And the oldPAR critical path carries more idle-worker imbalance.
	if simOld.Stats().Imbalance(8) < simNew.Stats().Imbalance(8) {
		t.Logf("note: imbalance old=%v new=%v (informational)",
			simOld.Stats().Imbalance(8), simNew.Stats().Imbalance(8))
	}
}

func TestJointBLStrategiesIdentical(t *testing.T) {
	// With a joint branch-length estimate the branch optimizer takes the
	// same code path under both strategies (the paper's ~5% case: only the
	// model-optimization phase differs).
	seqA := parallel.NewSequential()
	seqB := parallel.NewSequential()
	fxOld := buildFixture(t, 8, 60, 20, false, seqA, 7)
	fxNew := buildFixture(t, 8, 60, 20, false, seqB, 7)
	lOld := New(fxOld.eng, DefaultConfig(OldPar)).SmoothAll(context.Background())
	lNew := New(fxNew.eng, DefaultConfig(NewPar)).SmoothAll(context.Background())
	if lOld != lNew {
		t.Errorf("joint-BL smoothing must be identical: %v vs %v", lOld, lNew)
	}
}

func TestSmoothAllMonotone(t *testing.T) {
	fx := buildFixture(t, 12, 100, 25, true, parallel.NewSequential(), 3)
	o := New(fx.eng, DefaultConfig(NewPar))
	prev := fx.eng.LogLikelihood()
	for pass := 0; pass < 3; pass++ {
		cur := o.SmoothAll(context.Background())
		if cur < prev-1e-6 {
			t.Fatalf("pass %d: lnL decreased %v -> %v", pass, prev, cur)
		}
		prev = cur
	}
}

func TestOptimizeAlphasImproves(t *testing.T) {
	for _, strat := range []Strategy{OldPar, NewPar} {
		fx := buildFixture(t, 8, 80, 40, true, parallel.NewSequential(), 17)
		o := New(fx.eng, DefaultConfig(strat))
		before := fx.eng.LogLikelihood()
		o.OptimizeAlphas()
		after := fx.eng.LogLikelihood()
		if after < before-1e-9 {
			t.Errorf("%v: alpha optimization decreased lnL %v -> %v", strat, before, after)
		}
	}
}

func TestOptimizeAlphasStrategiesAgree(t *testing.T) {
	fxOld := buildFixture(t, 8, 80, 20, true, parallel.NewSequential(), 29)
	fxNew := buildFixture(t, 8, 80, 20, true, parallel.NewSequential(), 29)
	oOld := New(fxOld.eng, DefaultConfig(OldPar))
	oNew := New(fxNew.eng, DefaultConfig(NewPar))
	oOld.OptimizeAlphas()
	oNew.OptimizeAlphas()
	for ip := 0; ip < fxOld.eng.NumPartitions(); ip++ {
		aOld := fxOld.eng.Models[ip].Alpha
		aNew := fxNew.eng.Models[ip].Alpha
		if math.Abs(aOld-aNew) > 0.02*(aOld+0.1) {
			t.Errorf("partition %d: alpha oldPAR %v vs newPAR %v", ip, aOld, aNew)
		}
	}
}

func TestOptimizeRatesImprovesAndAgrees(t *testing.T) {
	fxOld := buildFixture(t, 8, 60, 30, true, parallel.NewSequential(), 41)
	fxNew := buildFixture(t, 8, 60, 30, true, parallel.NewSequential(), 41)
	oOld := New(fxOld.eng, DefaultConfig(OldPar))
	oNew := New(fxNew.eng, DefaultConfig(NewPar))
	before := fxOld.eng.LogLikelihood()
	oOld.OptimizeRatesAll()
	oNew.OptimizeRatesAll()
	afterOld := fxOld.eng.LogLikelihood()
	afterNew := fxNew.eng.LogLikelihood()
	if afterOld < before-1e-9 {
		t.Errorf("rate optimization decreased lnL %v -> %v", before, afterOld)
	}
	if math.Abs(afterOld-afterNew) > 1e-3*math.Abs(afterOld) {
		t.Errorf("strategies disagree after rate optimization: %v vs %v", afterOld, afterNew)
	}
}

func TestOptimizeModelConverges(t *testing.T) {
	fx := buildFixture(t, 8, 80, 40, true, parallel.NewSequential(), 53)
	o := New(fx.eng, DefaultConfig(NewPar))
	before := fx.eng.LogLikelihood()
	lnl, rounds, _ := o.OptimizeModel(context.Background())
	if lnl < before {
		t.Errorf("model optimization decreased lnL %v -> %v", before, lnl)
	}
	if rounds < 1 || rounds > o.Cfg.MaxModelRounds {
		t.Errorf("rounds = %d out of range", rounds)
	}
	// A second run from the converged state must improve almost nothing.
	lnl2, _, _ := o.OptimizeModel(context.Background())
	if lnl2-lnl > 5*o.Cfg.ModelEps {
		t.Errorf("second optimization found %v more lnL; first did not converge", lnl2-lnl)
	}
}

func TestOptimizeModelParallelMatchesSequential(t *testing.T) {
	pool, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	fxSeq := buildFixture(t, 8, 60, 20, true, parallel.NewSequential(), 67)
	fxPar := buildFixture(t, 8, 60, 20, true, pool, 67)
	lSeq, _, _ := New(fxSeq.eng, DefaultConfig(NewPar)).OptimizeModel(context.Background())
	lPar, _, _ := New(fxPar.eng, DefaultConfig(NewPar)).OptimizeModel(context.Background())
	if math.Abs(lSeq-lPar) > 1e-6*math.Abs(lSeq) {
		t.Errorf("parallel model optimization diverged: %v vs %v", lSeq, lPar)
	}
}

func TestConvergenceMaskShrinksWork(t *testing.T) {
	// Verify the boolean convergence vector actually reduces per-region
	// work over the course of a newPAR branch optimization: total ops of
	// derivative regions must be well below (iterations x full width).
	sim, _ := parallel.NewSim(4)
	fx := buildFixture(t, 8, 120, 12, true, sim, 71)
	o := New(fx.eng, DefaultConfig(NewPar))
	root := fx.tr.Tips[0].Back
	fx.eng.TraverseRoot(root, false, nil)
	sim.Stats().Reset()
	o.OptimizeBranch(root)
	st := sim.Stats()
	derivRegions := st.KindRegions[parallel.RegionDerivative]
	if derivRegions < 2 {
		t.Skip("branch converged immediately; nothing to check")
	}
	// Upper bound if every region had processed every pattern:
	fullWidth := opsFullDerivWidth(fx)
	if st.KindCritical[parallel.RegionDerivative] >= float64(derivRegions)*fullWidth {
		t.Errorf("convergence mask did not reduce work: %v critical ops across %d regions (full width %v)",
			st.KindCritical[parallel.RegionDerivative], derivRegions, fullWidth)
	}
}

func opsFullDerivWidth(fx *fixture) float64 {
	// Mirror of opsDerivative x per-worker share; a loose upper bound on the
	// critical path of one full-width derivative region.
	total := 0.0
	for _, p := range fx.d.Parts {
		total += float64(p.PatternCount) * float64(4*p.Type.States()*3+10)
	}
	return total
}

// TestOptimizeModelCancellation: cancelling the context stops the optimizer
// at a region boundary with a finite, consistent partial result, and the
// cancellation error is propagated (the silent-discard bug fixed in the
// Dataset/session redesign).
func TestOptimizeModelCancellation(t *testing.T) {
	fx := buildFixture(t, 8, 200, 50, true, parallel.NewSequential(), 23)
	o := New(fx.eng, DefaultConfig(NewPar))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lnl, rounds, err := o.OptimizeModel(ctx)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if rounds != 0 {
		t.Errorf("pre-cancelled context still ran %d rounds", rounds)
	}
	if math.IsNaN(lnl) || math.IsInf(lnl, 0) || lnl >= 0 {
		t.Errorf("partial lnl = %v, want finite negative", lnl)
	}
	// The engine stays consistent: a fresh uncancelled run completes and
	// can only improve on the partial score.
	full, _, err := o.OptimizeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full < lnl-1e-9 {
		t.Errorf("post-cancel optimization got worse: %v -> %v", lnl, full)
	}
}

// TestProgressCallback: one event per completed outer round, with the
// round's log likelihood.
func TestProgressCallback(t *testing.T) {
	fx := buildFixture(t, 6, 120, 40, false, parallel.NewSequential(), 29)
	cfg := DefaultConfig(NewPar)
	var rounds []int
	var lnls []float64
	cfg.Progress = func(round int, lnl float64) {
		rounds = append(rounds, round)
		lnls = append(lnls, lnl)
	}
	o := New(fx.eng, cfg)
	final, n, err := o.OptimizeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != n {
		t.Fatalf("%d progress events for %d rounds", len(rounds), n)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Errorf("event %d carries round %d", i, r)
		}
	}
	if lnls[len(lnls)-1] != final {
		t.Errorf("last event lnl %v != final %v", lnls[len(lnls)-1], final)
	}
}

// newEngine builds the shared state for (d, the models' category count,
// exec's worker count) and opens one session over it.
func newEngine(d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec parallel.Executor, opts core.Options) (*core.Engine, error) {
	sh, err := core.NewSharedWith(d, models[0].NumCats, exec.Threads(), opts.Backend)
	if err != nil {
		return nil, err
	}
	return core.NewSession(sh, tr, models, exec, opts)
}
