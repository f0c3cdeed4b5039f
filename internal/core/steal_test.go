package core

import (
	"math"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// stealFixture builds a mixed DNA+AA compressed dataset large enough that
// every worker's share splits into several chunks at minChunk 16, plus
// per-partition model templates at the requested category count.
func stealFixture(t *testing.T, cats int, seed int64) (*alignment.CompressedData, []*model.Model) {
	t.Helper()
	const taxa, dnaLen, aaLen = 10, 600, 180
	dna := randomAlignment(t, taxa, dnaLen, alignment.DNA, seed)
	aa := randomAlignment(t, taxa, aaLen, alignment.AA, seed+1)
	rows := make([][]byte, taxa)
	for i := 0; i < taxa; i++ {
		rows[i] = append(append([]byte{}, dna.Seqs[i]...), aa.Seqs[i]...)
	}
	al, err := alignment.New(taxaNames(taxa), rows)
	if err != nil {
		t.Fatal(err)
	}
	sites := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	parts := []alignment.Partition{
		{Name: "dna", Type: alignment.DNA, Sites: sites(0, dnaLen)},
		{Name: "aa", Type: alignment.AA, Sites: sites(dnaLen, dnaLen+aaLen)},
	}
	d, err := alignment.Compress(al, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mDNA, err := model.GTR(nil, nil, cats, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	mAA, err := model.SYN20(cats, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return d, []*model.Model{mDNA, mAA}
}

// stealResult is one full evaluation under a session: total and per-partition
// lnL plus both branch derivatives at the canonical root.
type stealResult struct {
	lnl     float64
	perPart []float64
	d1, d2  []float64
}

func runStealResult(t *testing.T, eng *Engine) stealResult {
	t.Helper()
	eng.InvalidateCLVs()
	root := eng.Tree.Tips[0].Back
	eng.Traverse(root, false, nil)
	lnl, perPart := eng.Evaluate(root, nil)
	eng.TraverseRoot(root, false, nil)
	eng.PrepareSumtable(root, nil)
	nP := eng.NumPartitions()
	z := make([]float64, nP)
	for i := range z {
		z[i] = 0.2
	}
	d1 := make([]float64, nP)
	d2 := make([]float64, nP)
	eng.BranchDerivatives(z, nil, d1, d2)
	return stealResult{lnl: lnl, perPart: append([]float64(nil), perPart...), d1: d1, d2: d2}
}

func requireBitIdentical(t *testing.T, label string, a, b stealResult) {
	t.Helper()
	if a.lnl != b.lnl {
		t.Errorf("%s: lnL %v != %v (must be bit-identical)", label, a.lnl, b.lnl)
	}
	for i := range a.perPart {
		if a.perPart[i] != b.perPart[i] {
			t.Errorf("%s: partition %d lnL %v != %v", label, i, a.perPart[i], b.perPart[i])
		}
	}
	for i := range a.d1 {
		if a.d1[i] != b.d1[i] || a.d2[i] != b.d2[i] {
			t.Errorf("%s: partition %d derivatives (%v,%v) != (%v,%v)", label, i, a.d1[i], a.d2[i], b.d1[i], b.d2[i])
		}
	}
}

// TestStealBitIdentityAcrossExecutorsAndToggle is the acceptance test for
// the determinism contract: likelihoods and both branch derivatives are a
// function of the schedule and its chunk layout only, so they are bit-for-bit
// identical (a) with thieving on vs off — toggled on one session or chosen
// per session through Options.Steal — and (b) across Pool sessions (which
// really steal), Sim (serial, never steals), and Sequential (T=1), at 1 and 4
// Gamma categories on mixed DNA+AA data. The weighted schedule is
// deliberately mispriced so the static pack is skewed and the pool runs must
// actually steal.
func TestStealBitIdentityAcrossExecutorsAndToggle(t *testing.T) {
	for _, cats := range []int{1, 4} {
		d, models := stealFixture(t, cats, int64(100+cats))
		const threads = 3
		sh, err := NewSharedWith(d, cats, threads, BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		// Misprice DNA 50x so the weighted pack loads one worker far above the
		// others: drained workers must steal to finish the region.
		costs := sh.SpanCosts()
		costs[0] *= 50
		if err := sh.OverrideSpanCosts(costs); err != nil {
			t.Fatal(err)
		}
		pool, err := parallel.NewPool(threads)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()

		mk := func(exec parallel.Executor, shd *Shared, opts Options) *Engine {
			tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]*model.Model, len(models))
			for i, m := range models {
				ms[i] = m.Clone()
			}
			eng, err := NewSession(shd, tr, ms, exec, opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		stealOpts := Options{Specialize: true, Schedule: schedule.Weighted, Steal: true, MinChunk: 16}

		poolSess := pool.Session()
		engPool := mk(poolSess, sh, stealOpts)
		resPool := runStealResult(t, engPool)

		engToggle := mk(pool.Session(), sh, stealOpts)
		engToggle.SetStealing(false)
		resToggle := runStealResult(t, engToggle)

		sim, err := parallel.NewSim(threads)
		if err != nil {
			t.Fatal(err)
		}
		engSim := mk(sim, sh, stealOpts)
		resSim := runStealResult(t, engSim)

		requireBitIdentical(t, "pool-stealing vs pool-no-steal", resPool, resToggle)
		requireBitIdentical(t, "pool-stealing vs sim-serial", resPool, resSim)

		// Sequential (T=1) chunked execution: stealing on vs off identical.
		shSeq, err := NewSharedWith(d, cats, 1, BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		engSeq := mk(parallel.NewSequential(), shSeq, stealOpts)
		resSeq := runStealResult(t, engSeq)
		engSeqOff := mk(parallel.NewSequential(), shSeq, stealOpts)
		engSeqOff.SetStealing(false)
		resSeqOff := runStealResult(t, engSeqOff)
		requireBitIdentical(t, "sequential toggle", resSeq, resSeqOff)

		// Sessions opened without Options.Steal run the same driver over the
		// same chunks: bit-identical to the stealing ones on every executor.
		staticOpts := stealOpts
		staticOpts.Steal = false
		engStatic := mk(pool.Session(), sh, staticOpts)
		requireBitIdentical(t, "pool Steal:true vs pool Steal:false", resPool, runStealResult(t, engStatic))
		requireBitIdentical(t, "pool Steal:true vs sim Steal:false", resPool, runStealResult(t, mk(sim, sh, staticOpts)))
		requireBitIdentical(t, "sequential Steal:true vs Steal:false", resSeq, runStealResult(t, mk(parallel.NewSequential(), shSeq, staticOpts)))
		if st := engStatic.Exec.Stats(); st.StealCount != 0 {
			t.Errorf("cats=%d: Steal:false session recorded %v steals", cats, st.StealCount)
		}

		// A different worker count is a different layout, so T=1 agrees with
		// T=3 to reassociation tolerance, not bitwise.
		if diff := math.Abs(resSeq.lnl - resPool.lnl); diff > 1e-9*math.Abs(resPool.lnl) {
			t.Errorf("cats=%d: T=1 lnL %v vs T=3 %v", cats, resSeq.lnl, resPool.lnl)
		}

		// The skewed pool runs must have actually stolen work (the toggle run
		// must not have).
		if st := poolSess.Stats(); st.StealCount == 0 {
			t.Errorf("cats=%d: pool session never stole on a 50x-mispriced pack (stats: %+v regions)", cats, st.Regions)
		}
		if st := engToggle.Exec.Stats(); st.StealCount != 0 {
			t.Errorf("cats=%d: stealing was disabled but %v steals recorded", cats, st.StealCount)
		}
	}
}

// idleObserver sums every worker's in-region synchronization wait.
type idleObserver struct{ idle float64 }

func (o *idleObserver) ObserveRegion(_ parallel.Region, _ time.Time, _ float64, ctxs []parallel.WorkerCtx) {
	for i := range ctxs {
		o.idle += ctxs[i].Idle
	}
}

// TestNoStepBarrierWithoutStealing pins the paper's one barrier per
// traversal: on a real pool a multi-step Traverse of a non-stealing session
// passes no intra-region step barrier and records no idle wait (each worker
// only reads CLV entries it wrote itself), while a stealing session still
// synchronizes between steps, n-1 times for n steps.
func TestNoStepBarrierWithoutStealing(t *testing.T) {
	d, models := stealFixture(t, 4, 9)
	const threads = 3
	sh, err := NewSharedWith(d, 4, threads, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	obs := &idleObserver{}
	pool.SetObserver(obs)
	for _, stealing := range []bool{false, true} {
		tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewSession(sh, tr, []*model.Model{models[0].Clone(), models[1].Clone()}, pool.Session(),
			Options{Specialize: true, Schedule: schedule.Weighted, Steal: stealing, MinChunk: 16})
		if err != nil {
			t.Fatal(err)
		}
		steps := tree.ComputeTraversal(tr.Tips[0].Back, false)
		if len(steps) < 2 {
			t.Fatal("fixture traversal has a single step")
		}
		obs.idle = 0
		eng.ExecuteSteps(steps, nil)
		want := int64(0)
		if stealing {
			want = int64(len(steps) - 1)
		}
		if got := eng.stealRT.Steps(); got != want {
			t.Errorf("stealing=%v: %d step barriers over a %d-step traversal, want %d", stealing, got, len(steps), want)
		}
		if !stealing && obs.idle != 0 {
			t.Errorf("non-stealing traversal recorded %v s of in-region idle, want none", obs.idle)
		}
	}
}

// TestStealBitIdentityUnderForcedScaling repeats the determinism check on a
// deep long-branch DNA tree that drives CLVs through the 2^-256 scaling
// path: the scaling exponents are per-pattern state, so chunk migration must
// not disturb them either.
func TestStealBitIdentityUnderForcedScaling(t *testing.T) {
	const taxa = 220
	a := randomAlignment(t, taxa, 60, alignment.DNA, 4242)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const threads = 3
	sh, err := NewSharedWith(d, 2, threads, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sim, err := parallel.NewSim(threads)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]stealResult, 0, 2)
	var scaledEng *Engine
	for i, exec := range []parallel.Executor{pool.Session(), sim} {
		// High alpha concentrates the Gamma rates near 1 so every category's
		// CLV entries shrink together and the 2^-256 rescale actually fires
		// on the deep long-branch tree (mirrors TestTipCaseScalingEquivalence).
		m, err := model.GTR(nil, nil, 2, 5.0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tree.Random(taxaNames(taxa), 1, tree.RandomOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewSession(sh, tr, []*model.Model{m}, exec, Options{Specialize: true, Steal: true, MinChunk: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range tr.Branches() {
			tree.SetBranchLength(b, 0, 1.4)
		}
		results = append(results, runStealResult(t, eng))
		if i == 0 {
			scaledEng = eng
		}
	}
	requireBitIdentical(t, "forced-scaling pool vs sim", results[0], results[1])
	fired := false
	for _, sc := range scaledEng.scales {
		for _, v := range sc {
			if v > 0 {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("scaling never triggered; fixture misconfigured")
	}
	if err := CheckFinite(results[0].lnl); err != nil {
		t.Fatal(err)
	}
}
