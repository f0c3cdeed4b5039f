package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/seqsim"
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

func buildFixture(t *testing.T, nTaxa, nSites, partLen int, perPartBL bool, exec *parallel.Pool, seed int64) *fixture {
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
	return assembleFixture(t, a, parts, perPartBL, exec, seed)
}

// buildMixedFixture is buildFixture over simulated data with three DNA
// partitions and one protein partition of ~partLen columns each.
func buildMixedFixture(t *testing.T, partLen int, perPartBL bool, exec *parallel.Pool, seed int64) *fixture {
	t.Helper()
	ds, err := seqsim.MixedDataset(8, 3, 1, partLen, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return assembleFixture(t, ds.Alignment, ds.Parts, perPartBL, exec, seed)
}

func assembleFixture(t *testing.T, a *alignment.Alignment, parts []alignment.Partition, perPartBL bool, exec *parallel.Pool, seed int64) *fixture {
	t.Helper()
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.Model, len(d.Parts))
	for i := range models {
		alpha := 0.4 + 0.4*float64(i%4)
		var m *model.Model
		if d.Parts[i].Type == alignment.DNA {
			m, err = model.GTR(nil, nil, 4, alpha)
		} else {
			m, err = model.SYN20(4, alpha)
		}
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	zSlots := 1
	if perPartBL && len(d.Parts) > 1 {
		zSlots = len(d.Parts)
	}
	tr, err := tree.Random(a.Names, zSlots, tree.RandomOptions{Seed: seed})
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
		before := fx.eng.LogLikelihood(nil)
		root := fx.tr.Tips[0].Back
		o.OptimizeBranch(root)
		after := fx.eng.LogLikelihood(nil)
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
		fx.eng.BranchDerivatives(zs, nil, nil, d1, d2, nil)
		if perPart {
			for ip := 0; ip < n; ip++ {
				if math.Abs(d1[ip]) > 1e-2 && zs[ip] > tree.MinBranchLen*2 && zs[ip] < tree.MaxBranchLen/2 {
					t.Errorf("perPart=%v partition %d: gradient %v not ~0 at z=%v", perPart, ip, d1[ip], zs[ip])
				}
			}
		} else {
			sum := 0.0
			for _, v := range d1 {
				sum += v
			}
			if math.Abs(sum) > 1e-2 && zs[0] > tree.MinBranchLen*2 && zs[0] < tree.MaxBranchLen/2 {
				t.Errorf("joint: total gradient %v not ~0", sum)
			}
		}
	}
}

// requireSameState fails unless the two fixtures hold bit-identical branch
// lengths (every branch, every slot), alphas and exchangeabilities.
func requireSameState(t *testing.T, a, b *fixture) {
	t.Helper()
	bA, bB := a.tr.Branches(), b.tr.Branches()
	for i := range bA {
		for k := range bA[i].Z {
			if math.Float64bits(bA[i].Z[k]) != math.Float64bits(bB[i].Z[k]) {
				t.Errorf("branch %d slot %d: %v vs %v", i, k, bA[i].Z[k], bB[i].Z[k])
			}
		}
	}
	for ip, mA := range a.eng.Models {
		mB := b.eng.Models[ip]
		if math.Float64bits(mA.Alpha) != math.Float64bits(mB.Alpha) {
			t.Errorf("partition %d: alpha %v vs %v", ip, mA.Alpha, mB.Alpha)
		}
		for ri := range mA.ExRates {
			if math.Float64bits(mA.ExRates[ri]) != math.Float64bits(mB.ExRates[ri]) {
				t.Errorf("partition %d rate %d: %v vs %v", ip, ri, mA.ExRates[ri], mB.ExRates[ri])
			}
		}
	}
}

func requireSameLnL(t *testing.T, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("%s differs between strategies: oldPAR %v vs newPAR %v", what, a, b)
	}
}

// smooth is SmoothAll on an optimizer whose Cfg.Weights are valid.
func smooth(t *testing.T, o *Optimizer, ctx context.Context) float64 {
	t.Helper()
	lnl, err := o.SmoothAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return lnl
}

func TestOldParNewParSameOptimum(t *testing.T) {
	// The two strategies run the same Newton iterations on the same numbers;
	// they differ only in region decomposition.
	fxOld := buildFixture(t, 10, 80, 20, true, parallel.NewSequential(), 23)
	fxNew := buildFixture(t, 10, 80, 20, true, parallel.NewSequential(), 23)
	lOld := smooth(t, New(fxOld.eng, DefaultConfig(OldPar)), context.Background())
	lNew := smooth(t, New(fxNew.eng, DefaultConfig(NewPar)), context.Background())
	requireSameLnL(t, "smoothed lnL", lOld, lNew)
	requireSameState(t, fxOld, fxNew)
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
	// A Brent step is one region, its traversal included: on the CLVs
	// smoothing left valid and on a cleared tree alike.
	for _, o := range []*Optimizer{oOld, oNew} {
		o.enter(o.alpha.groups[0])
		for _, state := range []string{"valid", "cleared"} {
			if state == "cleared" {
				o.E.Tree.ClearX()
			}
			before := o.E.Exec.Stats().Regions
			o.evalPartitions()
			if n := o.E.Exec.Stats().Regions - before; n != 1 {
				t.Errorf("%v, %s CLVs: a Brent step issued %d regions, want 1", o.Cfg.Strategy, state, n)
			}
		}
	}
	// And the oldPAR critical path carries more idle-worker imbalance.
	if simOld.Stats().Imbalance(8) < simNew.Stats().Imbalance(8) {
		t.Logf("note: imbalance old=%v new=%v (informational)",
			simOld.Stats().Imbalance(8), simNew.Stats().Imbalance(8))
	}
}

// TestStrategiesDoTheSameWork is the paper's sentence as a test: oldPAR and
// newPAR "perform identical algorithmic work" — every result bit and the
// total op count agree — and differ only in how many regions that work is
// cut into. Under a joint branch-length estimate the Newton loop has one
// group either way, so only the Brent regions account for the difference.
func TestStrategiesDoTheSameWork(t *testing.T) {
	for _, tc := range []struct {
		name        string
		mixed, perP bool
	}{
		{"dna/joint", false, false},
		{"dna/per-partition", false, true},
		{"mixed/joint", true, false},
		{"mixed/per-partition", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fx [2]*fixture
			var lnl [2]float64
			var st [2]*parallel.Stats
			for i, strat := range []Strategy{OldPar, NewPar} {
				sim, err := parallel.NewSim(4)
				if err != nil {
					t.Fatal(err)
				}
				if tc.mixed {
					fx[i] = buildMixedFixture(t, 24, tc.perP, sim, 37)
				} else {
					fx[i] = buildFixture(t, 8, 96, 24, tc.perP, sim, 37)
				}
				lnl[i], _, err = New(fx[i].eng, DefaultConfig(strat)).OptimizeModel(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				st[i] = sim.Stats()
			}
			requireSameLnL(t, "optimized lnL", lnl[0], lnl[1])
			requireSameState(t, fx[0], fx[1])
			// The per-region sums associate differently, hence not bits.
			if rel := math.Abs(st[0].TotalOps-st[1].TotalOps) / st[1].TotalOps; rel > 1e-12 {
				t.Errorf("total ops differ: oldPAR %v vs newPAR %v (rel %v)", st[0].TotalOps, st[1].TotalOps, rel)
			}
			if st[0].Regions <= st[1].Regions {
				t.Errorf("oldPAR regions %d not above newPAR %d", st[0].Regions, st[1].Regions)
			}
			if !tc.perP {
				for _, k := range []parallel.Region{parallel.RegionSumTable, parallel.RegionDerivative} {
					if st[0].KindRegions[k] != st[1].KindRegions[k] {
						t.Errorf("joint estimate: %v regions differ, oldPAR %d vs newPAR %d", k, st[0].KindRegions[k], st[1].KindRegions[k])
					}
				}
			}
		})
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
	lOld := smooth(t, New(fxOld.eng, DefaultConfig(OldPar)), context.Background())
	lNew := smooth(t, New(fxNew.eng, DefaultConfig(NewPar)), context.Background())
	if lOld != lNew {
		t.Errorf("joint-BL smoothing must be identical: %v vs %v", lOld, lNew)
	}
}

func TestSmoothAllMonotone(t *testing.T) {
	fx := buildFixture(t, 12, 100, 25, true, parallel.NewSequential(), 3)
	o := New(fx.eng, DefaultConfig(NewPar))
	prev := fx.eng.LogLikelihood(nil)
	for pass := 0; pass < 3; pass++ {
		cur := smooth(t, o, context.Background())
		if cur < prev-1e-6 {
			t.Fatalf("pass %d: lnL decreased %v -> %v", pass, prev, cur)
		}
		prev = cur
	}
}

// towards reports whether every flagged record in p's view points towards
// p.Back.
func towards(p *tree.Node) bool {
	if p.IsTip() {
		return true
	}
	if p.Next.X || p.Next.Next.X {
		return false
	}
	return towards(p.Next.Back) && towards(p.Next.Next.Back)
}

// TestRestoreFreeSmoothingKeepsContract: branch smoothing restores no CLV
// after a branch, because each OptimizeBranch's sumtable region recomputes
// what the lengths moved since made stale. Three passes in RAxML's order,
// each over all 2n - 3 branches, must leave every flag pointing towards the
// last branch optimised, and every branch's partial score, that branch's
// first, equal to its from-scratch score bit for bit.
func TestRestoreFreeSmoothingKeepsContract(t *testing.T) {
	for _, strat := range []Strategy{NewPar, OldPar} {
		for _, perPart := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v_perpart=%v", strat, perPart), func(t *testing.T) {
				fx := buildFixture(t, 12, 100, 25, perPart, parallel.NewSequential(), 3)
				e := fx.eng
				o := New(e, DefaultConfig(strat))
				// smooth is RAxML's smooth(): it optimises the branch at p,
				// then recurses on the branches behind p's own node, away
				// from p.Back, and restores no CLV on the way back. From
				// Tips[0].Back it visits every branch once.
				var last *tree.Node
				visited := 0
				var smooth func(p *tree.Node)
				smooth = func(p *tree.Node) {
					o.OptimizeBranch(p)
					visited, last = visited+1, p
					if !p.IsTip() {
						smooth(p.Next.Back)
						smooth(p.Next.Next.Back)
					}
				}
				for pass := 0; pass < 3; pass++ {
					visited = 0
					smooth(fx.tr.Tips[0].Back)
					if want := fx.tr.NumBranches(); visited != want {
						t.Fatalf("pass %d optimised %d branches, want %d", pass, visited, want)
					}
				}
				if !towards(last) || !towards(last.Back) {
					t.Fatal("a flag points away from the last branch optimised")
				}
				order := fx.tr.Branches()
				for j, b := range order {
					if b == last || b == last.Back {
						order[0], order[j] = order[j], order[0]
					}
				}
				partial := make([]float64, len(order))
				for j, b := range order {
					e.Evaluate(b, nil, nil, partial[j:j+1], nil)
				}
				var scratch [1]float64
				for j, b := range order {
					e.Tree.ClearX()
					if e.Evaluate(b, nil, nil, scratch[:], nil); math.Float64bits(partial[j]) != math.Float64bits(scratch[0]) {
						t.Errorf("branch %d-%d: partial score %v, from scratch %v", b.Index, b.Back.Index, partial[j], scratch[0])
					}
				}
			})
		}
	}
}

// The Brent solves start from the scores SmoothAll leaves (brentGroup), so
// every test that drives one directly smooths first, as OptimizeModel does.

func TestOptimizeAlphasImproves(t *testing.T) {
	for _, strat := range []Strategy{OldPar, NewPar} {
		fx := buildFixture(t, 8, 80, 40, true, parallel.NewSequential(), 17)
		o := New(fx.eng, DefaultConfig(strat))
		before := smooth(t, o, context.Background())
		o.optimizeAlphas()
		after := fx.eng.LogLikelihood(nil)
		if after < before-1e-9 {
			t.Errorf("%v: alpha optimization decreased lnL %v -> %v", strat, before, after)
		}
	}
}

func TestOptimizeAlphasStrategiesAgree(t *testing.T) {
	fxOld := buildFixture(t, 8, 80, 20, true, parallel.NewSequential(), 29)
	fxNew := buildFixture(t, 8, 80, 20, true, parallel.NewSequential(), 29)
	oOld, oNew := New(fxOld.eng, DefaultConfig(OldPar)), New(fxNew.eng, DefaultConfig(NewPar))
	smooth(t, oOld, context.Background())
	smooth(t, oNew, context.Background())
	oOld.optimizeAlphas()
	oNew.optimizeAlphas()
	requireSameLnL(t, "lnL after alpha optimization", fxOld.eng.LogLikelihood(nil), fxNew.eng.LogLikelihood(nil))
	requireSameState(t, fxOld, fxNew)
}

func TestOptimizeRatesImprovesAndAgrees(t *testing.T) {
	fxOld := buildFixture(t, 8, 60, 30, true, parallel.NewSequential(), 41)
	fxNew := buildFixture(t, 8, 60, 30, true, parallel.NewSequential(), 41)
	oOld, oNew := New(fxOld.eng, DefaultConfig(OldPar)), New(fxNew.eng, DefaultConfig(NewPar))
	before := smooth(t, oOld, context.Background())
	smooth(t, oNew, context.Background())
	oOld.optimizeRatesAll()
	oNew.optimizeRatesAll()
	afterOld := fxOld.eng.LogLikelihood(nil)
	if afterOld < before-1e-9 {
		t.Errorf("rate optimization decreased lnL %v -> %v", before, afterOld)
	}
	requireSameLnL(t, "lnL after rate optimization", afterOld, fxNew.eng.LogLikelihood(nil))
	requireSameState(t, fxOld, fxNew)
}

func TestOptimizeModelConverges(t *testing.T) {
	fx := buildFixture(t, 8, 80, 40, true, parallel.NewSequential(), 53)
	o := New(fx.eng, DefaultConfig(NewPar))
	before := fx.eng.LogLikelihood(nil)
	lnl, rounds, _ := o.OptimizeModel(context.Background())
	if lnl < before {
		t.Errorf("model optimization decreased lnL %v -> %v", before, lnl)
	}
	if rounds < 1 || rounds > o.Cfg.MaxModelRounds {
		t.Errorf("rounds = %d out of range", rounds)
	}
	// A second run from the converged state must improve almost nothing.
	lnl2, _, _ := o.OptimizeModel(context.Background())
	if lnl2-lnl > 5*modelEps {
		t.Errorf("second optimization found %v more lnL; first did not converge", lnl2-lnl)
	}
}

func TestOptimizeModelParallelMatchesSequential(t *testing.T) {
	pool, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	fxSeq := buildMixedFixture(t, 20, true, parallel.NewSequential(), 67)
	fxPar := buildMixedFixture(t, 20, true, pool, 67)
	lSeq, _, _ := New(fxSeq.eng, DefaultConfig(NewPar)).OptimizeModel(context.Background())
	lPar, _, _ := New(fxPar.eng, DefaultConfig(NewPar)).OptimizeModel(context.Background())
	if math.Abs(lSeq-lPar) > 1e-6*math.Abs(lSeq) {
		t.Errorf("parallel model optimization diverged: %v vs %v", lSeq, lPar)
	}
}

// TestOptimizeModelOnSignalFreeData: on uniform-random columns the optimum
// is degenerate — alpha pins at MinAlpha, second derivatives of the branch
// likelihood sit at zero and Newton's concave/convex branch is decided by
// rounding, so two executors whose reductions associate differently may end
// on different sides of it. What holds there is what the stopping rule
// promises: both runs converge before the round cap, and to within modelEps
// of each other.
func TestOptimizeModelOnSignalFreeData(t *testing.T) {
	pool, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var lnl [2]float64
	for i, exec := range []*parallel.Pool{parallel.NewSequential(), pool} {
		fx := buildFixture(t, 8, 60, 20, true, exec, 67)
		o := New(fx.eng, DefaultConfig(NewPar))
		var rounds int
		if lnl[i], rounds, err = o.OptimizeModel(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rounds >= o.Cfg.MaxModelRounds {
			t.Errorf("%d threads: no convergence inside %d rounds", exec.Threads(), rounds)
		}
	}
	if d := math.Abs(lnl[0] - lnl[1]); d > modelEps {
		t.Errorf("sequential %v and parallel %v differ by %v, more than modelEps", lnl[0], lnl[1], d)
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
	fx.eng.TraverseRoot(root)
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

// cancelAfter is a region observer that cancels a context once k regions
// have completed.
type cancelAfter struct {
	k      int
	cancel context.CancelFunc
}

func (c *cancelAfter) ObserveRegion(parallel.Region, time.Time, float64, []parallel.WorkerCtx) {
	if c.k--; c.k == 0 {
		c.cancel()
	}
}

// TestOptimizeModelCancellation: cancelling the context stops the optimizer
// at a region boundary with the cancellation error propagated (the
// silent-discard bug fixed in the Dataset/session redesign) and the returned
// lnL being the exact score of the state left behind — from which either
// strategy then optimizes to the same bits.
func TestOptimizeModelCancellation(t *testing.T) {
	for _, strat := range []Strategy{OldPar, NewPar} {
		t.Run(strat.String()+"/before-start", func(t *testing.T) {
			fx := buildFixture(t, 8, 200, 50, true, parallel.NewSequential(), 23)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, rounds, err := New(fx.eng, DefaultConfig(strat)).OptimizeModel(ctx)
			if err == nil {
				t.Fatal("expected cancellation error")
			}
			if rounds != 0 {
				t.Errorf("pre-cancelled context still ran %d rounds", rounds)
			}
		})
		// The cancel points are placed on the uncancelled run: inside the
		// first smoothing pass, a third of the way in (Brent solves of an
		// early round) and in its last tenth.
		whole := parallel.NewSequential()
		if _, _, err := New(buildFixture(t, 8, 200, 50, true, whole, 23).eng, DefaultConfig(strat)).OptimizeModel(context.Background()); err != nil {
			t.Fatal(err)
		}
		n := int(whole.Stats().Regions)
		for _, at := range []struct {
			name string
			k    int
		}{{"after-1-regions", 1}, {"after-40-regions", 40}, {"after-a-third", n / 3}, {"after-nine-tenths", n * 9 / 10}} {
			k := at.k
			t.Run(strat.String()+"/"+at.name, func(t *testing.T) {
				// Two identical cancelled runs leave identical states; resume
				// one under each strategy.
				var fx [2]*fixture
				var full [2]float64
				for i, resume := range []Strategy{OldPar, NewPar} {
					exec := parallel.NewSequential()
					fx[i] = buildFixture(t, 8, 200, 50, true, exec, 23)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					exec.SetObserver(&cancelAfter{k: k, cancel: cancel})
					lnl, _, err := New(fx[i].eng, DefaultConfig(strat)).OptimizeModel(ctx)
					if err == nil {
						t.Fatalf("run of %d regions finished in under %d; nothing was cancelled", n, k)
					}
					exec.SetObserver(nil)
					fx[i].eng.Tree.ClearX()
					if got := fx[i].eng.LogLikelihood(nil); math.Float64bits(got) != math.Float64bits(lnl) {
						t.Errorf("partial lnl %v is not the score %v of the state left behind", lnl, got)
					}
					full[i], _, err = New(fx[i].eng, DefaultConfig(resume)).OptimizeModel(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if full[i] < lnl-1e-9 {
						t.Errorf("post-cancel optimization got worse: %v -> %v", lnl, full[i])
					}
				}
				requireSameLnL(t, "lnL resumed from the cancelled state", full[0], full[1])
				requireSameState(t, fx[0], fx[1])
			})
		}
	}
}

// buildGridFixture is buildFixture over the paper's target shape: simulated
// DNA, 10 partitions x 50 columns, 8 taxa, per-partition branch lengths.
func buildGridFixture(t *testing.T, exec *parallel.Pool, seed int64) *fixture {
	t.Helper()
	ds, err := seqsim.GridDataset(8, 10000, 1000, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Parts) != 10 {
		t.Fatalf("grid has %d partitions, want 10", len(ds.Parts))
	}
	return assembleFixture(t, ds.Alignment, ds.Parts, true, exec, seed)
}

// countProposals wraps every model parameter's set so that *n counts the
// values the Brent loops try — one partition-evaluation each. The pinning
// call of a solve sets the best-seen value and is not counted; a proposal
// never equals it. A proposal for which refuse returns an error fails with
// it the way a real one does: a rate is set and its eigendecomposition then
// fails, leaving the model half-changed.
func countProposals(o *Optimizer, n *int, refuse func(nth int) error) {
	wrap := func(par *brentParam, ri int) {
		set := par.set
		par.set = func(ip int, v float64) error {
			if v != o.brents[ip].X {
				*n++
				if err := refuse(*n); err != nil {
					if ri >= 0 {
						o.E.Models[ip].SetExRate(ri, v)
					}
					return err
				}
			}
			return set(ip, v)
		}
	}
	wrap(&o.alpha, -1)
	for ri := range o.rates {
		wrap(&o.rates[ri], ri)
	}
}

// TestBrentEvaluationsPerSolve holds the Brent loop to what bracketing next
// to the current value bought: at most 9 partition-evaluations per partition,
// parameter and outer round of a model optimization on the 10 x 50 grid (7.7
// measured; golden section from the whole legal interval took 15.5), the same
// number under either strategy.
func TestBrentEvaluationsPerSolve(t *testing.T) {
	var evals [2]int
	for i, strat := range []Strategy{OldPar, NewPar} {
		fx := buildGridFixture(t, parallel.NewSequential(), 42)
		o := New(fx.eng, DefaultConfig(strat))
		countProposals(o, &evals[i], func(int) error { return nil })
		_, rounds, err := o.OptimizeModel(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		solves := rounds * fx.eng.NumPartitions() * (1 + len(o.rates))
		per := float64(evals[i]) / float64(solves)
		t.Logf("%v: %d partition-evaluations over %d rounds, %.2f per partition, parameter and round", strat, evals[i], rounds, per)
		if per > 9 {
			t.Errorf("%v: %.2f partition-evaluations per partition, parameter and round, ceiling 9", strat, per)
		}
	}
	if evals[0] != evals[1] {
		t.Errorf("oldPAR made %d partition-evaluations, newPAR %d", evals[0], evals[1])
	}
}

// TestKeptScoresAreTheClosingPair: inside a round of OptimizeModel a Brent
// solve keeps -FX for every partition of its group where the closing pair used
// to re-score the pinned state. Driven solve by solve as OptimizeModel drives
// them, each kept score is the bits that closing pair evaluates — a partition
// whose Brent never beat its seed keeps the seed — and after a round's solves
// the score of the whole tree is the sum of the kept ones.
func TestKeptScoresAreTheClosingPair(t *testing.T) {
	ctx := context.Background()
	for _, strat := range []Strategy{OldPar, NewPar} {
		sim, _ := parallel.NewSim(4)
		fx := buildMixedFixture(t, 24, true, sim, 37)
		o := New(fx.eng, DefaultConfig(strat))
		smooth(t, o, ctx)
		var params []*brentParam
		for ri := range o.rates {
			params = append(params, &o.rates[ri])
		}
		params = append(params, &o.alpha)
		x0, seed := make([]float64, len(o.score)), make([]float64, len(o.score))
		solves, seedKept := 0, 0
		for round := 0; round < 3; round++ {
			for _, par := range params {
				for _, g := range par.groups {
					for _, ip := range g {
						x0[ip], seed[ip] = par.get(ip), o.score[ip]
					}
					if err := o.brentGroup(par, g); err != nil {
						t.Fatal(err)
					}
					solves++
					o.enter(g)
					closing := o.evalPartitions()
					for _, ip := range g {
						if math.Float64bits(o.score[ip]) != math.Float64bits(closing[ip]) {
							t.Errorf("%v round %d partition %d: kept score %v, the closing pair evaluates %v", strat, round, ip, o.score[ip], closing[ip])
						}
						if math.Float64bits(par.get(ip)) == math.Float64bits(x0[ip]) {
							seedKept++
							if math.Float64bits(o.score[ip]) != math.Float64bits(seed[ip]) {
								t.Errorf("%v round %d partition %d: never left its seed but kept %v, not the seed %v", strat, round, ip, o.score[ip], seed[ip])
							}
						}
					}
				}
			}
			sum := 0.0
			for _, v := range o.score {
				sum += v
			}
			if got := fx.eng.LogLikelihood(nil); math.Float64bits(got) != math.Float64bits(sum) {
				t.Errorf("%v round %d: LogLikelihood %v after the solves, the kept scores sum to %v", strat, round, got, sum)
			}
			smooth(t, o, ctx)
		}
		if seedKept == 0 {
			t.Errorf("%v: no partition of the %d solves kept its seed; that case went untested", strat, solves)
		}
		t.Logf("%v: %d solves, %d partitions kept their seed", strat, solves, seedKept)
	}
}

// TestModelRefusingAProposal: a proposal the model refuses — a failed
// eigendecomposition, which leaves the rate set and the eigensystem stale —
// ends the optimization with that error and, like a cancellation, with every
// model consistent and the returned lnL the exact score of the state left
// behind, from which a later run carries on.
func TestModelRefusingAProposal(t *testing.T) {
	refused := errors.New("eigendecomposition failed")
	for _, strat := range []Strategy{OldPar, NewPar} {
		for _, k := range []int{1, 2, 17, 150} {
			t.Run(fmt.Sprintf("%v/proposal-%d", strat, k), func(t *testing.T) {
				fx := buildMixedFixture(t, 24, true, parallel.NewSequential(), 37)
				o := New(fx.eng, DefaultConfig(strat))
				n := 0
				countProposals(o, &n, func(nth int) error {
					if nth == k {
						return refused
					}
					return nil
				})
				lnl, _, err := o.OptimizeModel(context.Background())
				if !errors.Is(err, refused) {
					t.Fatalf("err = %v, want the model's refusal", err)
				}
				if n != k {
					t.Errorf("%d proposals made, the optimization should have stopped at the %d-th", n, k)
				}
				for ip, m := range fx.eng.Models {
					vals := append([]float64(nil), m.EigenVals...)
					if err := m.UpdateEigen(); err != nil {
						t.Fatal(err)
					}
					for i := range vals {
						if math.Float64bits(vals[i]) != math.Float64bits(m.EigenVals[i]) {
							t.Fatalf("partition %d: eigensystem is not that of its rates", ip)
						}
					}
				}
				fx.eng.Tree.ClearX()
				if got := fx.eng.LogLikelihood(nil); math.Float64bits(got) != math.Float64bits(lnl) {
					t.Errorf("returned lnl %v is not the score %v of the state left behind", lnl, got)
				}
				again, _, err := New(fx.eng, DefaultConfig(strat)).OptimizeModel(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if again < lnl-1e-9 {
					t.Errorf("optimization after the refusal got worse: %v -> %v", lnl, again)
				}
			})
		}
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

// TestOptimizeBranchAllocCeiling pins what one OptimizeBranch allocates on a
// 10-partition per-partition-branch-length session, under both strategies:
// nothing. The Newton loop holds its states by value in the Optimizer and
// the region entries it calls — the partial traversal, the sumtable, the
// derivatives — reduce into buffers the session and the Optimizer own. Every
// SPR insertion trial pays this.
func TestOptimizeBranchAllocCeiling(t *testing.T) {
	for _, tc := range []struct {
		strat   Strategy
		ceiling float64
	}{{NewPar, 0}, {OldPar, 0}} {
		fx := buildFixture(t, 8, 200, 20, true, parallel.NewSequential(), 19)
		if n := fx.eng.NumPartitions(); n != 10 {
			t.Fatalf("fixture has %d partitions, want 10", n)
		}
		o := New(fx.eng, DefaultConfig(tc.strat))
		o.SmoothAll(context.Background())
		root := fx.tr.Tips[0].Back
		got := testing.AllocsPerRun(20, func() {
			for k := range root.Z {
				tree.SetBranchLength(root, k, tree.DefaultBranchLength)
			}
			o.OptimizeBranch(root)
		})
		t.Logf("%v: %v allocs per OptimizeBranch", tc.strat, got)
		if got > tc.ceiling {
			t.Errorf("%v: %v allocs per OptimizeBranch, ceiling %v", tc.strat, got, tc.ceiling)
		}
	}
}

// newEngine builds the shared state for (d, the models' category count,
// exec's worker count) and opens one session over it.
func newEngine(d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec *parallel.Pool, opts core.Options) (*core.Engine, error) {
	sh, err := core.NewSharedWith(d, models[0].NumCats, exec.Threads(), core.BackendAuto)
	if err != nil {
		return nil, err
	}
	return core.NewSession(sh, tr, models, exec, opts)
}

// TestRankThenFinishIsOptimizeBranch: RankBranch followed by FinishBranch
// chooses OptimizeBranch's lengths bit for bit, on every branch of a
// smoothed mixed DNA + protein tree started away from its optimum, under
// both strategies, joint and per-partition lengths and the convergence-mask
// ablation; RankBranch alone takes fewer derivative regions, and neither
// allocates.
func TestRankThenFinishIsOptimizeBranch(t *testing.T) {
	for _, strat := range []Strategy{NewPar, OldPar} {
		for _, perPart := range []bool{false, true} {
			for _, noMask := range []bool{false, true} {
				name := fmt.Sprintf("%v_perpart=%v_nomask=%v", strat, perPart, noMask)
				t.Run(name, func(t *testing.T) {
					fx := buildMixedFixture(t, 60, perPart, parallel.NewSequential(), 29)
					cfg := DefaultConfig(strat)
					cfg.DisableConvergenceMask = noMask
					o := New(fx.eng, cfg)
					o.SmoothAll(context.Background())
					st := fx.eng.Exec.Stats()
					var full, ranked int64
					for _, b := range fx.tr.Branches() {
						kept := append([]float64(nil), b.Z...)
						start := func() {
							for k := range b.Z {
								tree.SetBranchLength(b, k, 3*kept[k])
							}
						}
						start()
						n := st.KindRegions[parallel.RegionDerivative]
						o.OptimizeBranch(b)
						full += st.KindRegions[parallel.RegionDerivative] - n
						want := append([]float64(nil), b.Z...)
						start()
						n = st.KindRegions[parallel.RegionDerivative]
						o.RankBranch(b, 1e-3)
						ranked += st.KindRegions[parallel.RegionDerivative] - n
						o.FinishBranch(b)
						for k := range want {
							if math.Float64bits(b.Z[k]) != math.Float64bits(want[k]) {
								t.Errorf("branch %d-%d slot %d: ranked and finished %v, OptimizeBranch %v", b.Index, b.Back.Index, k, b.Z[k], want[k])
							}
						}
						if allocs := testing.AllocsPerRun(5, func() {
							start()
							o.RankBranch(b, 1e-3)
							o.FinishBranch(b)
						}); allocs != 0 {
							t.Errorf("branch %d-%d: %v allocs per RankBranch + FinishBranch", b.Index, b.Back.Index, allocs)
						}
					}
					t.Logf("derivative regions: %d OptimizeBranch, %d RankBranch", full, ranked)
					if ranked >= full {
						t.Errorf("RankBranch took %d derivative regions, OptimizeBranch %d", ranked, full)
					}
				})
			}
		}
	}
}
