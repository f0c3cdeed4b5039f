package core

import (
	"math"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
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

// TestOverrideSpanCosts covers the experiment hook: costs can be replaced
// only before the first schedule exists, and they steer the weighted pack.
func TestOverrideSpanCosts(t *testing.T) {
	d, _ := mixedData(t, 19)
	sh, err := NewSharedWith(d, 4, 4, BackendAuto)
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
