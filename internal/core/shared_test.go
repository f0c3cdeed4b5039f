package core

import (
	"math"
	"reflect"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/steal"
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
	total := eng.LogLikelihood(nil) // parallel-reduction path, clamps internally
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
	z := []float64{0.1, 0.1}
	eng.BranchDerivatives(root, z, nil, nil, nil, nil, nil)
	// Force the skip path for every pattern: a zeroed sumtable, which the
	// next call at root finds current, makes l = 0 < 1e-300 in every
	// derivative evaluation.
	for i := range eng.sumtable {
		eng.sumtable[i] = 0
	}
	eng.Exec.Stats().Reset()
	d1 := make([]float64, 2)
	d2 := make([]float64, 2)
	eng.BranchDerivatives(root, z, nil, nil, d1, d2, nil)
	if d1[0] != 0 || d1[1] != 0 || d2[0] != 0 || d2[1] != 0 {
		t.Fatalf("zeroed sumtable should contribute nothing: d1=%v d2=%v", d1, d2)
	}
	want := 0.0
	for _, p := range d.Parts {
		want += float64(p.PatternCount) * opsDerivative(p.Type.States(), eng.NumCats(), 1, false)
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

// TestSessionRefusesForeignLayout: a session drains only a share layout cut
// for its dataset. A layout for another worker count, or over another
// partition scheme with the same pattern total, is an error; a nil Layout is
// the cyclic schedule's shares, and a layout that fits is drained as it is.
func TestSessionRefusesForeignLayout(t *testing.T) {
	d, models := mixedData(t, 19)
	const threads = 2
	sh, err := NewSharedWith(d, 4, threads, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	open := func(l *steal.Layout) (*Engine, error) {
		sim, err := parallel.NewSim(threads)
		if err != nil {
			t.Fatal(err)
		}
		ms := []*model.Model{models[0].Clone(), models[1].Clone()}
		return NewSession(sh, mustTree(t, d.NumTaxa(), 3), ms, sim, Options{Specialize: true, Layout: l})
	}

	sh3, err := NewSharedWith(d, 4, threads+1, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open(cut(t, sh3, schedule.Cyclic)); err == nil {
		t.Error("a layout cut for 3 workers opened a 2-worker session")
	}
	// Same span count and pattern total, the partition boundary moved by one.
	mid := d.Parts[0].End() + 1
	moved, err := schedule.New(schedule.Cyclic, threads, []schedule.Span{
		{Lo: 0, Hi: mid, Cost: 1}, {Lo: mid, Hi: d.TotalPatterns, Cost: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open(steal.NewLayout(moved, 0)); err == nil {
		t.Error("a layout over another partition scheme opened a session")
	}

	def, err := open(nil)
	if err != nil {
		t.Fatal(err)
	}
	l := def.ShareLayout()
	if l.Schedule().Strategy() != schedule.Cyclic || l.Threads() != threads || !reflect.DeepEqual(l, steal.NewLayout(l.Schedule(), 0)) {
		t.Errorf("nil Layout drains %v for %d workers, want cyclic's shares for %d",
			l.Schedule().Strategy(), l.Threads(), threads)
	}
	explicit := cut(t, sh, schedule.Cyclic)
	eng, err := open(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if eng.ShareLayout() != explicit {
		t.Error("the session does not drain the layout it was handed")
	}
	if a, b := def.LogLikelihood(nil), eng.LogLikelihood(nil); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("nil Layout lnL %v, cyclic's %v", a, b)
	}
}
