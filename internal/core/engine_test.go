package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// ---------- independent brute-force reference implementation ----------
//
// The reference computes per-site likelihoods with its own Felsenstein
// recursion, P matrices from a scaling-and-squaring Taylor series (not the
// eigendecomposition used by the engine), and per-node max-normalization in
// place of the engine's 2^256 scaling. Agreement therefore cross-validates
// the CLV kernels, the eigendecomposition, and the scaling machinery at once.

func expmSeries(q []float64, s int, t float64) []float64 {
	// Scale A = Q*t down until its max-abs entry is small, Taylor-expand,
	// then square back up.
	a := make([]float64, s*s)
	maxAbs := 0.0
	for i, v := range q {
		a[i] = v * t
		if math.Abs(a[i]) > maxAbs {
			maxAbs = math.Abs(a[i])
		}
	}
	n := 0
	for maxAbs > 0.25 {
		maxAbs /= 2
		n++
	}
	scale := math.Ldexp(1, -n)
	for i := range a {
		a[i] *= scale
	}
	// exp(A) by Taylor to 24 terms.
	res := make([]float64, s*s)
	for i := 0; i < s; i++ {
		res[i*s+i] = 1
	}
	term := make([]float64, s*s)
	copy(term, res)
	for k := 1; k <= 24; k++ {
		term = numericMatMul(term, a, s)
		inv := 1 / float64(k)
		for i := range term {
			term[i] *= inv
		}
		for i := range res {
			res[i] += term[i]
		}
	}
	for i := 0; i < n; i++ {
		res = numericMatMul(res, res, s)
	}
	return res
}

func numericMatMul(a, b []float64, s int) []float64 {
	c := make([]float64, s*s)
	for i := 0; i < s; i++ {
		for k := 0; k < s; k++ {
			aik := a[i*s+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < s; j++ {
				c[i*s+j] += aik * b[k*s+j]
			}
		}
	}
	return c
}

// bruteCond returns the conditional likelihood vector at record p (towards
// p.Back) for pattern j of partition part under category rate `rate`,
// along with an accumulated log normalization factor.
func bruteCond(p *tree.Node, part *alignment.CompressedPartition, q []float64, slot int, rate float64, j int) ([]float64, float64) {
	s := part.Type.States()
	if p.IsTip() {
		return alignment.TipVector(part.Type, part.Tips[p.Index][j]), 0
	}
	c1, lg1 := bruteCond(p.Next.Back, part, q, slot, rate, j)
	c2, lg2 := bruteCond(p.Next.Next.Back, part, q, slot, rate, j)
	p1 := expmSeries(q, s, rate*p.Next.Z[slot])
	p2 := expmSeries(q, s, rate*p.Next.Next.Z[slot])
	out := make([]float64, s)
	maxV := 0.0
	for a := 0; a < s; a++ {
		x1, x2 := 0.0, 0.0
		for b := 0; b < s; b++ {
			x1 += p1[a*s+b] * c1[b]
			x2 += p2[a*s+b] * c2[b]
		}
		out[a] = x1 * x2
		if out[a] > maxV {
			maxV = out[a]
		}
	}
	lg := lg1 + lg2
	if maxV > 0 && maxV < 1e-100 { // normalize to protect deep recursions
		for a := range out {
			out[a] /= maxV
		}
		lg += math.Log(maxV)
	}
	return out, lg
}

// bruteLogLikelihood computes the total log likelihood of one partition with
// the virtual root on tip 0's branch.
func bruteLogLikelihood(tr *tree.Tree, part *alignment.CompressedPartition, m *model.Model, slot int) float64 {
	q := m.BuildQ()
	s := part.Type.States()
	tip := tr.Tips[0]
	root := tip.Back
	total := 0.0
	for j := 0; j < part.PatternCount; j++ {
		li := 0.0
		worstLg := 0.0
		cats := m.NumCats
		type catRes struct {
			v  float64
			lg float64
		}
		results := make([]catRes, cats)
		for c := 0; c < cats; c++ {
			rate := m.CatRates[c]
			rvec, lg := bruteCond(root, part, q, slot, rate, j)
			pm := expmSeries(q, s, rate*tip.Z[slot])
			tv := alignment.TipVector(part.Type, part.Tips[tip.Index][j])
			v := 0.0
			for a := 0; a < s; a++ {
				t := 0.0
				for b := 0; b < s; b++ {
					t += pm[a*s+b] * rvec[b]
				}
				v += m.Freqs[a] * tv[a] * t
			}
			results[c] = catRes{v, lg}
			if c == 0 || lg < worstLg {
				worstLg = lg
			}
		}
		// Combine categories on a common log scale.
		for c := 0; c < cats; c++ {
			li += results[c].v * math.Exp(results[c].lg-worstLg)
		}
		li /= float64(cats)
		total += part.Weights[j] * (math.Log(li) + worstLg)
	}
	return total
}

// ---------- fixtures ----------

func taxaNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

// randomAlignment builds a random alignment with occasional gaps/ambiguity.
func randomAlignment(t *testing.T, n, m int, dtype alignment.DataType, seed int64) *alignment.Alignment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var chars string
	if dtype == alignment.DNA {
		chars = "ACGTACGTACGTACGT-NRY"
	} else {
		chars = "ARNDCQEGHILKMFPSTWYVARNDCQEGHILKMFPSTWYV-XBZ"
	}
	names := taxaNames(n)
	seqs := make([][]byte, n)
	for i := range seqs {
		row := make([]byte, m)
		for j := range row {
			row[j] = chars[rng.Intn(len(chars))]
		}
		seqs[i] = row
	}
	a, err := alignment.New(names, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// newEngine builds the shared state for (d, the models' category count,
// exec's worker count) under the auto-resolved backend and opens one session
// over it.
func newEngine(d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec parallel.Executor, opts Options) (*Engine, error) {
	return newEngineOn(BackendAuto, d, tr, models, exec, opts)
}

// newEngineOn is newEngine with the kernel backend pinned.
func newEngineOn(backend Backend, d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec parallel.Executor, opts Options) (*Engine, error) {
	cats := 0
	if len(models) > 0 {
		cats = models[0].NumCats
	}
	sh, err := NewSharedWith(d, cats, exec.Threads(), backend)
	if err != nil {
		return nil, err
	}
	return NewSession(sh, tr, models, exec, opts)
}

func mkEngine(t *testing.T, a *alignment.Alignment, parts []alignment.Partition, models []*model.Model, zSlots int, treeSeed int64, exec parallel.Executor) (*Engine, *alignment.CompressedData, *tree.Tree) {
	t.Helper()
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(a.NumTaxa()), zSlots, tree.RandomOptions{Seed: treeSeed})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(d, tr, models, exec, Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng, d, tr
}

// ---------- tests ----------

func TestEngineMatchesBruteForceDNA(t *testing.T) {
	for _, n := range []int{4, 5, 7} {
		a := randomAlignment(t, n, 30, alignment.DNA, int64(n)*11)
		m, err := model.GTR([]float64{0.3, 0.2, 0.22, 0.28}, []float64{1.3, 2.8, 0.6, 1.1, 3.5, 1}, 4, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		eng, d, tr := mkEngine(t, a, alignment.SinglePartition(a, alignment.DNA, ""), []*model.Model{m}, 1, int64(n), parallel.NewSequential())
		got := eng.LogLikelihood()
		want := bruteLogLikelihood(tr, d.Parts[0], m, 0)
		if math.Abs(got-want) > 1e-7*math.Abs(want) {
			t.Errorf("n=%d: engine lnL = %.10f, brute force = %.10f", n, got, want)
		}
	}
}

func TestEngineMatchesBruteForceAA(t *testing.T) {
	a := randomAlignment(t, 4, 12, alignment.AA, 99)
	m, err := model.SYN20(4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	eng, d, tr := mkEngine(t, a, alignment.SinglePartition(a, alignment.AA, ""), []*model.Model{m}, 1, 5, parallel.NewSequential())
	got := eng.LogLikelihood()
	want := bruteLogLikelihood(tr, d.Parts[0], m, 0)
	if math.Abs(got-want) > 1e-7*math.Abs(want) {
		t.Errorf("engine lnL = %.10f, brute force = %.10f", got, want)
	}
}

func TestEngineMatchesBruteForceMultiPartition(t *testing.T) {
	a := randomAlignment(t, 5, 40, alignment.DNA, 123)
	parts, err := alignment.UniformPartitions(a, alignment.DNA, 20)
	if err != nil {
		t.Fatal(err)
	}
	m0, _ := model.GTR([]float64{0.4, 0.1, 0.2, 0.3}, nil, 4, 0.5)
	m1, _ := model.GTR([]float64{0.2, 0.3, 0.3, 0.2}, []float64{2, 1, 1, 1, 2, 1}, 4, 2.0)
	eng, d, tr := mkEngine(t, a, parts, []*model.Model{m0, m1}, 2, 7, parallel.NewSequential())
	// Give the partitions distinct branch lengths.
	rng := rand.New(rand.NewSource(42))
	for _, b := range tr.Branches() {
		tree.SetBranchLength(b, 0, 0.02+rng.Float64()*0.3)
		tree.SetBranchLength(b, 1, 0.02+rng.Float64()*0.3)
	}
	eng.InvalidateCLVs()
	total, perPart := eng.PartitionLogLikelihoods()
	want0 := bruteLogLikelihood(tr, d.Parts[0], m0, 0)
	want1 := bruteLogLikelihood(tr, d.Parts[1], m1, 1)
	if math.Abs(perPart[0]-want0) > 1e-7*math.Abs(want0) {
		t.Errorf("partition 0: %.9f vs brute %.9f", perPart[0], want0)
	}
	if math.Abs(perPart[1]-want1) > 1e-7*math.Abs(want1) {
		t.Errorf("partition 1: %.9f vs brute %.9f", perPart[1], want1)
	}
	if math.Abs(total-(want0+want1)) > 1e-7*math.Abs(total) {
		t.Errorf("total: %.9f vs %.9f", total, want0+want1)
	}
}

func TestPulleyPrinciple(t *testing.T) {
	// The log likelihood must be invariant under virtual root placement.
	a := randomAlignment(t, 8, 60, alignment.DNA, 17)
	m, _ := model.GTR([]float64{0.27, 0.23, 0.24, 0.26}, []float64{0.8, 2.2, 1.4, 0.9, 2.9, 1}, 4, 0.8)
	eng, _, tr := mkEngine(t, a, alignment.SinglePartition(a, alignment.DNA, ""), []*model.Model{m}, 1, 31, parallel.NewSequential())
	ref := eng.LogLikelihood()
	for bi, b := range tr.Branches() {
		root := b
		if root.IsTip() {
			root = root.Back
		}
		if root.IsTip() {
			continue
		}
		eng.TraverseRoot(root, true, nil)
		got, _ := eng.Evaluate(root, nil)
		if math.Abs(got-ref) > 1e-8*math.Abs(ref) {
			t.Errorf("branch %d: lnL %.10f != reference %.10f", bi, got, ref)
		}
	}
}

func TestParallelEquivalence(t *testing.T) {
	a := randomAlignment(t, 10, 83, alignment.DNA, 3)
	parts, _ := alignment.UniformPartitions(a, alignment.DNA, 29)
	models := make([]*model.Model, len(parts))
	for i := range models {
		m, err := model.GTR(nil, nil, 4, 0.5+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	seqEng, _, _ := mkEngine(t, a, parts, models, 1, 77, parallel.NewSequential())
	ref := seqEng.LogLikelihood()
	for _, mk := range []struct {
		name string
		mk   func() (parallel.Executor, error)
	}{
		{"pool2", func() (parallel.Executor, error) { return parallel.NewPool(2) }},
		{"pool3", func() (parallel.Executor, error) { return parallel.NewPool(3) }},
		{"pool5", func() (parallel.Executor, error) { return parallel.NewPool(5) }},
		{"sim8", func() (parallel.Executor, error) { return parallel.NewSim(8) }},
		{"sim16", func() (parallel.Executor, error) { return parallel.NewSim(16) }},
	} {
		ex, err := mk.mk()
		if err != nil {
			t.Fatal(err)
		}
		cl := make([]*model.Model, len(models))
		for i, m := range models {
			cl[i] = m.Clone()
		}
		eng, _, _ := mkEngine(t, a, parts, cl, 1, 77, ex)
		got := eng.LogLikelihood()
		if math.Abs(got-ref) > 1e-9*math.Abs(ref) {
			t.Errorf("%s: lnL %.12f != sequential %.12f", mk.name, got, ref)
		}
		ex.Close()
	}
}

func TestScalingTriggersAndStaysCorrect(t *testing.T) {
	// A 160-taxon tree with long branches forces CLV entries far below
	// 2^-256; the engine must scale and still match the (max-normalizing)
	// brute-force recursion.
	n := 160
	a := randomAlignment(t, n, 4, alignment.DNA, 2024)
	m, _ := model.JC69(2, 5.0)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(n), 1, tree.RandomOptions{Seed: 5, MeanBranchLength: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(d, tr, []*model.Model{m}, parallel.NewSequential(), Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.LogLikelihood()
	if err := CheckFinite(got); err != nil {
		t.Fatal(err)
	}
	// Verify that scaling actually fired somewhere.
	fired := false
	for _, sc := range eng.scales {
		for _, v := range sc {
			if v > 0 {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("scaling never triggered; test misconfigured")
	}
	want := bruteLogLikelihood(tr, d.Parts[0], m, 0)
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("scaled lnL %.8f != brute force %.8f", got, want)
	}
}

func TestSpecializeEquivalence(t *testing.T) {
	a := randomAlignment(t, 9, 50, alignment.DNA, 8)
	m, _ := model.GTR([]float64{0.31, 0.19, 0.27, 0.23}, nil, 4, 1.1)
	d, _ := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	tr, _ := tree.Random(taxaNames(9), 1, tree.RandomOptions{Seed: 10})
	fast, err := newEngine(d, tr, []*model.Model{m}, parallel.NewSequential(), Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	tr2, _ := tree.Random(taxaNames(9), 1, tree.RandomOptions{Seed: 10})
	slow, err := newEngine(d, tr2, []*model.Model{m.Clone()}, parallel.NewSequential(), Options{Specialize: false})
	if err != nil {
		t.Fatal(err)
	}
	a1, b1 := fast.LogLikelihood(), slow.LogLikelihood()
	if a1 != b1 {
		t.Errorf("specialized %v != generic %v", a1, b1)
	}
}

func TestBranchDerivativesMatchFiniteDifferences(t *testing.T) {
	a := randomAlignment(t, 6, 45, alignment.DNA, 55)
	parts, _ := alignment.UniformPartitions(a, alignment.DNA, 22)
	m0, _ := model.GTR(nil, nil, 4, 0.7)
	m1, _ := model.GTR(nil, nil, 4, 1.9)
	eng, _, tr := mkEngine(t, a, parts, []*model.Model{m0, m1}, 2, 13, parallel.NewSequential())
	nParts := 2
	root := tr.Tips[0].Back
	eng.TraverseRoot(root, false, nil)
	eng.PrepareSumtable(root, nil)
	d1 := make([]float64, nParts)
	d2 := make([]float64, nParts)
	for _, z0 := range []float64{0.05, 0.15, 0.6} {
		zs := []float64{z0, z0 * 1.5}
		eng.BranchDerivatives(zs, nil, d1, d2)
		// Finite differences of the per-partition lnL as a function of the
		// root branch length (CLVs at both ends are independent of it).
		// h must stay well above the cancellation floor of the second
		// difference: |lnL| ~ 1e3 means an absolute noise of ~1e-13 in f,
		// so h = 1e-4 keeps the d2 estimate accurate to ~1e-5.
		const h = 1e-4
		for ip := 0; ip < nParts; ip++ {
			lnl := func(z float64) float64 {
				old := root.Z[ip]
				tree.SetBranchLength(root, ip, z)
				_, per := eng.Evaluate(root, nil)
				tree.SetBranchLength(root, ip, old)
				return per[ip]
			}
			base := zs[ip]
			fm, f0, fp := lnl(base-h), lnl(base), lnl(base+h)
			nd1 := (fp - fm) / (2 * h)
			nd2 := (fp - 2*f0 + fm) / (h * h)
			if math.Abs(d1[ip]-nd1) > 1e-3*(1+math.Abs(nd1)) {
				t.Errorf("z=%v part=%d: d1 analytic %v vs numeric %v", base, ip, d1[ip], nd1)
			}
			if math.Abs(d2[ip]-nd2) > 1e-2*(1+math.Abs(nd2)) {
				t.Errorf("z=%v part=%d: d2 analytic %v vs numeric %v", base, ip, d2[ip], nd2)
			}
		}
	}
}

func TestActiveMaskRestrictsWork(t *testing.T) {
	a := randomAlignment(t, 6, 60, alignment.DNA, 21)
	parts, _ := alignment.UniformPartitions(a, alignment.DNA, 20)
	models := make([]*model.Model, len(parts))
	for i := range models {
		models[i], _ = model.GTR(nil, nil, 4, 1)
	}
	eng, _, tr := mkEngine(t, a, parts, models, 1, 9, parallel.NewSequential())
	ref := eng.LogLikelihood()
	_, perAll := eng.Evaluate(tr.Tips[0].Back, nil)
	mask := make([]bool, len(parts))
	mask[1] = true
	total, per := eng.Evaluate(tr.Tips[0].Back, mask)
	if math.Abs(total-perAll[1]) > 1e-12*math.Abs(perAll[1]) {
		t.Errorf("masked eval total %v != partition lnL %v", total, perAll[1])
	}
	for ip := range per {
		if ip != 1 && per[ip] != 0 {
			t.Errorf("masked partition %d has nonzero lnL %v", ip, per[ip])
		}
	}
	sum := 0.0
	for _, v := range perAll {
		sum += v
	}
	if math.Abs(sum-ref) > 1e-9*math.Abs(ref) {
		t.Errorf("per-partition sums %v != total %v", sum, ref)
	}
}

func TestSiteLogLikelihoodsSumToTotal(t *testing.T) {
	a := randomAlignment(t, 7, 33, alignment.DNA, 61)
	m, _ := model.GTR(nil, nil, 4, 0.9)
	eng, d, _ := mkEngine(t, a, alignment.SinglePartition(a, alignment.DNA, ""), []*model.Model{m}, 1, 3, parallel.NewSequential())
	total := eng.LogLikelihood()
	site := eng.SiteLogLikelihoods(0)
	sum := 0.0
	for j, v := range site {
		sum += d.Parts[0].Weights[j] * v
	}
	if math.Abs(sum-total) > 1e-9*math.Abs(total) {
		t.Errorf("site lnL sum %v != total %v", sum, total)
	}
}

func TestGammaConvergesToHomogeneous(t *testing.T) {
	// As alpha grows the discrete Gamma rates collapse towards 1, so the
	// 4-category likelihood must approach the homogeneous one monotonically.
	a := randomAlignment(t, 6, 40, alignment.DNA, 77)
	m1, _ := model.GTR(nil, nil, 1, 1)
	e1, _, _ := mkEngine(t, a, alignment.SinglePartition(a, alignment.DNA, ""), []*model.Model{m1}, 1, 19, parallel.NewSequential())
	l1 := e1.LogLikelihood()
	var prevGap float64
	for i, alpha := range []float64{0.5, 5, 99} {
		m4, _ := model.GTR(nil, nil, 4, alpha)
		e4, _, _ := mkEngine(t, a, alignment.SinglePartition(a, alignment.DNA, ""), []*model.Model{m4}, 1, 19, parallel.NewSequential())
		gap := math.Abs(e4.LogLikelihood() - l1)
		if i > 0 && gap > prevGap {
			t.Errorf("alpha=%v: gap %v did not shrink from %v", alpha, gap, prevGap)
		}
		prevGap = gap
	}
	// At alpha=99 the residual rate spread is ~1/sqrt(99)≈10%, so allow a
	// small relative gap.
	if prevGap > 2.5e-3*math.Abs(l1) {
		t.Errorf("alpha=99 gap %v too large relative to |lnL|=%v", prevGap, math.Abs(l1))
	}
}

func TestNewValidation(t *testing.T) {
	a := randomAlignment(t, 4, 10, alignment.DNA, 1)
	d, _ := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	tr, _ := tree.Random(taxaNames(4), 1, tree.RandomOptions{Seed: 1})
	m, _ := model.JC69(4, 1)
	ex := parallel.NewSequential()
	if _, err := newEngine(nil, tr, []*model.Model{m}, ex, Options{}); err == nil {
		t.Error("expected error for nil data")
	}
	if _, err := newEngine(d, tr, nil, ex, Options{}); err == nil {
		t.Error("expected error for model count mismatch")
	}
	mAA, _ := model.SYN20(4, 1)
	if _, err := newEngine(d, tr, []*model.Model{mAA}, ex, Options{}); err == nil {
		t.Error("expected error for model type mismatch")
	}
	m2, _ := model.JC69(2, 1)
	d2parts := []alignment.Partition{
		{Name: "a", Type: alignment.DNA, Sites: []int{0, 1, 2, 3, 4}},
		{Name: "b", Type: alignment.DNA, Sites: []int{5, 6, 7, 8, 9}},
	}
	dd, _ := alignment.Compress(a, d2parts, alignment.CompressOptions{})
	if _, err := newEngine(dd, tr, []*model.Model{m, m2}, ex, Options{}); err == nil {
		t.Error("expected error for category count mismatch")
	}
	tr5, _ := tree.Random(taxaNames(4), 5, tree.RandomOptions{Seed: 1})
	if _, err := newEngine(dd, tr5, []*model.Model{m, m.Clone()}, ex, Options{}); err == nil {
		t.Error("expected error for bad z-slot count")
	}
	tr3, _ := tree.Random(taxaNames(3), 1, tree.RandomOptions{Seed: 1})
	if _, err := newEngine(d, tr3, []*model.Model{m}, ex, Options{}); err == nil {
		t.Error("expected error for taxa count mismatch")
	}
	dirty, _ := model.JC69(4, 1)
	dirty.SetExRate(0, 2)
	if _, err := newEngine(d, tr, []*model.Model{dirty}, ex, Options{}); err == nil {
		t.Error("expected error for dirty model")
	}
}

func TestPartialTraversalMatchesFull(t *testing.T) {
	a := randomAlignment(t, 12, 70, alignment.DNA, 5)
	m, _ := model.GTR(nil, nil, 4, 0.8)
	eng, _, tr := mkEngine(t, a, alignment.SinglePartition(a, alignment.DNA, ""), []*model.Model{m}, 1, 6, parallel.NewSequential())
	ref := eng.LogLikelihood()
	// Evaluate at every internal branch using partial traversals only; the
	// incremental updates must agree with the full recomputation.
	for _, b := range tr.Branches() {
		root := b
		if root.IsTip() {
			root = root.Back
		}
		if root.IsTip() {
			continue
		}
		eng.TraverseRoot(root, true, nil)
		got, _ := eng.Evaluate(root, nil)
		if math.Abs(got-ref) > 1e-8*math.Abs(ref) {
			t.Fatalf("partial traversal drifted: %v vs %v", got, ref)
		}
	}
	// Full invalidation and recomputation returns the same value.
	eng.InvalidateCLVs()
	if got := eng.LogLikelihood(); math.Abs(got-ref) > 1e-9*math.Abs(ref) {
		t.Errorf("full recomputation %v != %v", got, ref)
	}
}

// Property: random small datasets give finite, non-positive log likelihoods,
// in parallel and sequentially, with identical results.
func TestEngineQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		mlen := 5 + rng.Intn(30)
		a := randomAlignment(nil2T(), n, mlen, alignment.DNA, seed)
		m, err := model.GTR(nil, nil, 2, 0.3+2*rng.Float64())
		if err != nil {
			return false
		}
		d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
		if err != nil {
			return false
		}
		tr, err := tree.Random(taxaNames(n), 1, tree.RandomOptions{Seed: seed})
		if err != nil {
			return false
		}
		eng, err := newEngine(d, tr, []*model.Model{m}, parallel.NewSequential(), Options{Specialize: true})
		if err != nil {
			return false
		}
		lnl := eng.LogLikelihood()
		if math.IsNaN(lnl) || math.IsInf(lnl, 0) || lnl > 1e-9 {
			return false
		}
		pool, err := parallel.NewPool(3)
		if err != nil {
			return false
		}
		defer pool.Close()
		tr2, _ := tree.Random(taxaNames(n), 1, tree.RandomOptions{Seed: seed})
		eng2, err := newEngine(d, tr2, []*model.Model{m.Clone()}, pool, Options{Specialize: true})
		if err != nil {
			return false
		}
		lnl2 := eng2.LogLikelihood()
		return math.Abs(lnl-lnl2) <= 1e-9*math.Abs(lnl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// nil2T adapts randomAlignment's testing.T parameter for quick.Check usage.
func nil2T() *testing.T { return &testing.T{} }

func TestScheduleStrategiesEquivalentNumerics(t *testing.T) {
	// The schedule strategy changes who computes what, never the result.
	a := randomAlignment(t, 8, 61, alignment.DNA, 20)
	parts, _ := alignment.UniformPartitions(a, alignment.DNA, 20)
	models := make([]*model.Model, len(parts))
	for i := range models {
		models[i], _ = model.GTR(nil, nil, 4, 0.9)
	}
	d, _ := alignment.Compress(a, parts, alignment.CompressOptions{})
	mk := func(strat schedule.Strategy) float64 {
		sim, _ := parallel.NewSim(4)
		tr, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 33})
		cl := make([]*model.Model, len(models))
		for i, m := range models {
			cl[i] = m.Clone()
		}
		eng, err := newEngine(d, tr, cl, sim, Options{Specialize: true, Schedule: strat})
		if err != nil {
			t.Fatal(err)
		}
		return eng.LogLikelihood()
	}
	cyc := mk(schedule.Cyclic)
	for _, strat := range []schedule.Strategy{schedule.Block, schedule.Weighted} {
		if got := mk(strat); math.Abs(cyc-got) > 1e-9*math.Abs(cyc) {
			t.Errorf("%v schedule changed the likelihood: %v vs %v", strat, got, cyc)
		}
	}
}

func TestBlockScheduleNarrowRegionImbalance(t *testing.T) {
	// A single-partition (narrow) region under the block schedule lands on
	// few workers; cyclic spreads it evenly (the paper's rationale).
	a := randomAlignment(t, 6, 80, alignment.DNA, 21)
	parts, _ := alignment.UniformPartitions(a, alignment.DNA, 20)
	models := make([]*model.Model, len(parts))
	for i := range models {
		models[i], _ = model.GTR(nil, nil, 4, 1)
	}
	d, _ := alignment.Compress(a, parts, alignment.CompressOptions{})
	imbalance := func(strat schedule.Strategy) float64 {
		sim, _ := parallel.NewSim(4)
		tr, _ := tree.Random(taxaNames(6), 1, tree.RandomOptions{Seed: 3})
		cl := make([]*model.Model, len(models))
		for i, m := range models {
			cl[i] = m.Clone()
		}
		eng, err := newEngine(d, tr, cl, sim, Options{Specialize: true, Schedule: strat})
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate only partition 1: a narrow region.
		mask := make([]bool, len(models))
		mask[1] = true
		root := tr.Tips[0].Back
		eng.Traverse(root, false, nil)
		sim.Stats().Reset()
		eng.Evaluate(root, mask)
		return sim.Stats().Imbalance(4)
	}
	cyc, blk := imbalance(schedule.Cyclic), imbalance(schedule.Block)
	if blk <= cyc*1.5 {
		t.Errorf("block imbalance %v should far exceed cyclic %v on narrow regions", blk, cyc)
	}
	// Weighted must keep narrow regions as balanced as cyclic (same ±1 band).
	if wtd := imbalance(schedule.Weighted); wtd > cyc*1.05 {
		t.Errorf("weighted imbalance %v should match cyclic %v on narrow regions", wtd, cyc)
	}
}

// TestMoreThreadsThanPatterns pins the degenerate geometry the schedule must
// survive: more workers than global patterns. Workers without an assignment
// must contribute exactly zero ops in every region, and the parallel result
// must match the sequential one bit-for-bit.
func TestMoreThreadsThanPatterns(t *testing.T) {
	a := randomAlignment(t, 6, 5, alignment.DNA, 22)
	parts := alignment.SinglePartition(a, alignment.DNA, "tiny")
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalPatterns >= 8 {
		t.Fatalf("fixture too wide: %d patterns", d.TotalPatterns)
	}
	m, _ := model.GTR(nil, nil, 4, 0.7)
	seqEng, err := newEngine(d, mustTree(t, 6, 11), []*model.Model{m.Clone()}, parallel.NewSequential(), Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	want := seqEng.LogLikelihood()
	for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
		sim, _ := parallel.NewSim(8)
		eng, err := newEngine(d, mustTree(t, 6, 11), []*model.Model{m.Clone()}, sim, Options{Specialize: true, Schedule: strat})
		if err != nil {
			t.Fatal(err)
		}
		sched := eng.Schedule()
		if sched.Strategy() != strat || sched.Threads() != 8 || sched.Total() != d.TotalPatterns {
			t.Errorf("engine schedule = %v/%d workers/%d patterns, want %v/8/%d",
				sched.Strategy(), sched.Threads(), sched.Total(), strat, d.TotalPatterns)
		}
		// More workers than patterns: the static prediction must price the
		// idle workers in, exactly like the runtime stats below.
		if pred := sched.Imbalance(); pred < float64(8)/float64(d.TotalPatterns)-1e-9 {
			t.Errorf("%v: static imbalance %v below the T/patterns floor", strat, pred)
		}
		if got := eng.LogLikelihood(); got != want {
			t.Errorf("%v with 8 threads on %d patterns: lnL %v != sequential %v", strat, d.TotalPatterns, got, want)
		}
		st := sim.Stats()
		busy := 0
		for _, ops := range st.WorkerOps {
			if ops > 0 {
				busy++
			}
		}
		if busy > d.TotalPatterns {
			t.Errorf("%v: %d workers recorded ops for %d patterns; empty workers must record zero", strat, busy, d.TotalPatterns)
		}
	}
}

func mustTree(t *testing.T, taxa int, seed int64) *tree.Tree {
	t.Helper()
	tr, err := tree.Random(taxaNames(taxa), 1, tree.RandomOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSharedSessionsMatchStandalone: one Shared backing several sessions
// (including concurrent ones on a shared pool) must reproduce the
// standalone-engine likelihood bit-for-bit, while schedules are computed
// once and cached.
func TestSharedSessionsMatchStandalone(t *testing.T) {
	a := randomAlignment(t, 8, 80, alignment.DNA, 31)
	parts, err := alignment.UniformPartitions(a, alignment.DNA, 20)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mkModels := func() []*model.Model {
		models := make([]*model.Model, len(d.Parts))
		for i := range models {
			models[i], _ = model.GTR(nil, nil, 4, 0.7)
		}
		return models
	}

	// Standalone reference on a private pool.
	pool0, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool0.Close()
	tr0, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 5})
	ref, err := newEngine(d, tr0, mkModels(), pool0, Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.LogLikelihood()

	// Shared state + shared pool, several concurrent sessions.
	sh, err := NewSharedWith(d, 4, 3, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sh.ScheduleFor(schedule.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if s2, _ := sh.ScheduleFor(schedule.Cyclic); s2 != s1 {
		t.Error("schedule not cached: second ScheduleFor returned a new object")
	}
	pool, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const n = 4
	got := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tr, err := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewSession(sh, tr, mkModels(), pool.Session(), Options{Specialize: true})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Shared() != sh {
			t.Fatal("session does not expose its shared state")
		}
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			got[i] = eng.LogLikelihood()
		}(i, eng)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[i] != want {
			t.Errorf("session %d lnL = %v, want bit-identical %v", i, got[i], want)
		}
	}

	// Mismatched executor width must be rejected.
	seq := parallel.NewSequential()
	tr1, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 5})
	if _, err := NewSession(sh, tr1, mkModels(), seq, Options{}); err == nil {
		t.Error("expected error for executor/shared thread mismatch")
	}
}
