package core

import (
	"math"
	"sync"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// TestSiteLogLikelihoodsClampNonpositive is the satellite regression test for
// the missing guard: a pathological model (all-zero base frequencies) drives
// every site likelihood to exactly zero, and SiteLogLikelihoods must clamp
// like evaluatePartition does instead of emitting -Inf — staying a faithful
// mirror of the parallel reduction.
func TestSiteLogLikelihoodsClampNonpositive(t *testing.T) {
	a := randomAlignment(t, 6, 30, alignment.DNA, 63)
	m, _ := model.GTR(nil, nil, 4, 0.9)
	eng, d, _ := mkEngine(t, a, alignment.SinglePartition(a, alignment.DNA, ""), []*model.Model{m}, 1, 8, parallel.NewSequential())
	// Sanity: the healthy path is finite and was already covered elsewhere.
	for j, v := range eng.SiteLogLikelihoods(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("healthy site %d lnL = %v", j, v)
		}
	}
	// Zero frequencies force li = 0 for every pattern in both code paths
	// (newview does not read Freqs, so the CLVs stay intact).
	for i := range m.Freqs {
		m.Freqs[i] = 0
	}
	total := eng.LogLikelihood() // parallel-reduction path, clamps internally
	site := eng.SiteLogLikelihoods(0)
	sum := 0.0
	for j, v := range site {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("site %d lnL = %v; the clamp must keep the debug path finite", j, v)
		}
		sum += d.Parts[0].Weights[j] * v
	}
	if math.Abs(sum-total) > 1e-9*math.Abs(total) {
		t.Errorf("clamped site lnL sum %v drifted from the parallel reduction %v", sum, total)
	}
}

// TestDerivativeChargesSkippedPatterns is the satellite regression test for
// the derivative-region undercount: a pattern whose scaled likelihood
// vanishes is skipped numerically, but its cs-length dot products already
// ran, so the region's op charge must still count it.
func TestDerivativeChargesSkippedPatterns(t *testing.T) {
	a := randomAlignment(t, 6, 44, alignment.DNA, 29)
	parts, _ := alignment.UniformPartitions(a, alignment.DNA, 22)
	m0, _ := model.GTR(nil, nil, 4, 0.8)
	m1, _ := model.GTR(nil, nil, 4, 1.4)
	eng, d, tr := mkEngine(t, a, parts, []*model.Model{m0, m1}, 2, 14, parallel.NewSequential())
	root := tr.Tips[0].Back
	eng.TraverseRoot(root, false, nil)
	eng.PrepareSumtable(root, nil)
	// Force the skip path for every pattern: a zeroed sumtable makes l = 0 <
	// 1e-300 in every derivative evaluation.
	for i := range eng.sumtable {
		eng.sumtable[i] = 0
	}
	eng.Exec.Stats().Reset()
	d1 := make([]float64, 2)
	d2 := make([]float64, 2)
	eng.BranchDerivatives([]float64{0.1, 0.1}, nil, d1, d2)
	if d1[0] != 0 || d1[1] != 0 || d2[0] != 0 || d2[1] != 0 {
		t.Fatalf("zeroed sumtable should contribute nothing: d1=%v d2=%v", d1, d2)
	}
	want := 0.0
	for _, p := range d.Parts {
		want += float64(p.PatternCount) * opsDerivative(p.Type.States(), eng.NumCats(), 1)
	}
	st := eng.Exec.Stats()
	if st.KindCritical[parallel.RegionDerivative] != want {
		t.Errorf("derivative region charged %v ops, want %v (skipped patterns still performed their dot products)",
			st.KindCritical[parallel.RegionDerivative], want)
	}
}

// mixedData builds a small two-type (DNA+AA) compressed dataset whose
// per-pattern costs differ ~25x between partitions.
func mixedData(t *testing.T, seed int64) (*alignment.CompressedData, []*model.Model) {
	t.Helper()
	const taxa, dnaLen, aaLen = 8, 60, 24
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
	mDNA, err := model.GTR(nil, nil, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	mAA, err := model.SYN20(4, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return d, []*model.Model{mDNA, mAA}
}

// TestMeasuredRebalanceKeepsLikelihood pins the core acceptance property: a
// mid-analysis rebalance swaps the schedule at a region boundary without
// invalidating CLVs or changing the session's likelihood (beyond
// floating-point reassociation of the per-worker reduction), while the
// observed-cost attribution produces usable per-partition samples.
func TestMeasuredRebalanceKeepsLikelihood(t *testing.T) {
	d, models := mixedData(t, 71)
	sim, err := parallel.NewSim(4)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 44})
	eng, err := newEngine(d, tr, models, sim, Options{Specialize: true, Schedule: schedule.Measured})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Schedule().Strategy() != schedule.Measured {
		t.Fatalf("engine pinned %v, want measured", eng.Schedule().Strategy())
	}
	lnl1 := eng.LogLikelihood()
	if err := CheckFinite(lnl1); err != nil {
		t.Fatal(err)
	}
	// The traversal + evaluation above ran with measurement on; every
	// partition must have time and pattern samples.
	costs := eng.ObservedCosts()
	for ip, c := range costs {
		if c <= 0 {
			t.Errorf("partition %d observed cost = %v, want > 0 after a measured run", ip, c)
		}
	}
	if imb := eng.MeasuredImbalance(); imb < 1 {
		t.Errorf("measured imbalance %v below 1", imb)
	}
	// A threshold far above any real imbalance must not trigger (hysteresis).
	if reb, err := eng.MaybeRebalance(1e9); err != nil || reb {
		t.Errorf("MaybeRebalance(1e9) = %v, %v; want no-op", reb, err)
	}
	before := eng.Schedule()
	if err := eng.RebalanceNow(); err != nil {
		t.Fatal(err)
	}
	if eng.Rebalances() != 1 {
		t.Errorf("rebalance count = %d, want 1", eng.Rebalances())
	}
	after := eng.Schedule()
	if after == before {
		t.Error("RebalanceNow did not adopt a new schedule object")
	}
	if after.Strategy() != schedule.Measured || after.Total() != before.Total() {
		t.Errorf("rebalanced schedule is %v/%d patterns, want measured/%d", after.Strategy(), after.Total(), before.Total())
	}
	// The measurement window restarts after a rebalance.
	if c := eng.ObservedCosts(); c[0] != 0 || c[1] != 0 {
		t.Errorf("observed costs not reset after rebalance: %v", c)
	}
	// Re-evaluating WITHOUT retraversing proves the old CLVs stay valid under
	// the new assignment (per-pattern results are schedule-invariant).
	root := tr.Tips[0].Back
	lnlNoTraverse, _ := eng.Evaluate(root, nil)
	if math.Abs(lnlNoTraverse-lnl1) > 1e-9*math.Abs(lnl1) {
		t.Errorf("rebalance invalidated CLVs: %v vs %v", lnlNoTraverse, lnl1)
	}
	lnl2 := eng.LogLikelihood()
	if math.Abs(lnl2-lnl1) > 1e-9*math.Abs(lnl1) {
		t.Errorf("rebalance changed the likelihood: %v vs %v", lnl2, lnl1)
	}
	// Static-strategy sessions must refuse to rebalance.
	tr2, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 44})
	models2 := []*model.Model{models[0].Clone(), models[1].Clone()}
	sim2, _ := parallel.NewSim(4)
	engStatic, err := newEngine(d, tr2, models2, sim2, Options{Specialize: true, Schedule: schedule.Weighted})
	if err != nil {
		t.Fatal(err)
	}
	if reb, err := engStatic.MaybeRebalance(0); err != nil || reb {
		t.Errorf("static MaybeRebalance = %v, %v; want inert", reb, err)
	}
	if err := engStatic.RebalanceNow(); err == nil {
		t.Error("static RebalanceNow should error")
	}
}

// TestConcurrentSessionsSurviveRebalance runs several measured-strategy
// sessions over one Shared and a shared pool while one of them repeatedly
// rebalances; every session must keep producing the same likelihood (they
// adopt rebuilt schedules at their own region boundaries). Run under -race
// in CI.
func TestConcurrentSessionsSurviveRebalance(t *testing.T) {
	d, models := mixedData(t, 83)
	const threads = 3
	sh, err := NewShared(d, 4, threads)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Sequential reference for the tolerance check.
	trRef, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 61})
	seqEng, err := newEngine(d, trRef, []*model.Model{models[0].Clone(), models[1].Clone()}, parallel.NewSequential(), Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	want := seqEng.LogLikelihood()

	const sessions = 4
	const iters = 6
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		tr, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 61})
		eng, err := NewSession(sh, tr, []*model.Model{models[0].Clone(), models[1].Clone()}, pool.Session(), Options{Specialize: true, Schedule: schedule.Measured})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				lnl := eng.LogLikelihood()
				if math.Abs(lnl-want) > 1e-9*math.Abs(want) {
					t.Errorf("session %d iter %d: lnL %v drifted from %v", i, it, lnl, want)
					return
				}
				if i == 0 {
					if err := eng.RebalanceNow(); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i, eng)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
}

// TestOverrideSpanCosts covers the experiment hook: costs can be replaced
// only before the first schedule exists, and they steer the weighted pack.
func TestOverrideSpanCosts(t *testing.T) {
	d, _ := mixedData(t, 19)
	sh, err := NewShared(d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig := sh.SpanCosts()
	if len(orig) != 2 || orig[1] <= orig[0] {
		t.Fatalf("analytic costs %v should price AA above DNA", orig)
	}
	if err := sh.OverrideSpanCosts([]float64{orig[1], orig[0]}); err != nil {
		t.Fatal(err)
	}
	if got := sh.SpanCosts(); got[0] != orig[1] || got[1] != orig[0] {
		t.Errorf("override not applied: %v", got)
	}
	if err := sh.OverrideSpanCosts([]float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := sh.ScheduleFor(schedule.Weighted); err != nil {
		t.Fatal(err)
	}
	if err := sh.OverrideSpanCosts([]float64{1, 1}); err == nil {
		t.Error("expected error once a schedule has been built")
	}
}
