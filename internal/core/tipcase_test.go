package core

import (
	"fmt"
	"math"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// The tip-case specialization tests build alignments wide enough that every
// worker's share clears the table threshold of a tip carrying every code, so
// the table paths (not the generic fallback) are what is being compared
// against the generic kernels.

// maxTipRows is the longest present-code list of any taxon in a partition:
// twice it is the widest table threshold tipTablesAmortize can apply there.
func maxTipRows(p *alignment.CompressedPartition) int {
	rows := 0
	for _, codes := range p.Codes {
		rows = max(rows, len(codes))
	}
	return rows
}

func tipCaseModels(t *testing.T, dtype alignment.DataType, cats int, alpha float64) *model.Model {
	t.Helper()
	var m *model.Model
	var err error
	if dtype == alignment.DNA {
		m, err = model.GTR([]float64{0.31, 0.19, 0.27, 0.23}, []float64{1.3, 2.8, 0.6, 1.1, 3.5, 1}, cats, alpha)
	} else {
		m, err = model.SYN20(cats, alpha)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// specAndGenericEngines builds two engines over the same data and identical
// trees, one with Specialize on (tip tables + unrolled DNA) and one fully
// generic.
func specAndGenericEngines(t *testing.T, a *alignment.Alignment, dtype alignment.DataType, cats int, alpha float64, treeSeed int64) (spec, gen *Engine, d *alignment.CompressedData) {
	t.Helper()
	d, err := alignment.Compress(a, alignment.SinglePartition(a, dtype, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if min := 2 * maxTipRows(d.Parts[0]); d.TotalPatterns < min {
		t.Fatalf("fixture too narrow: %d patterns < table threshold %d; tip tables would not engage", d.TotalPatterns, min)
	}
	mk := func(specialize bool) *Engine {
		tr, err := tree.Random(taxaNames(a.NumTaxa()), 1, tree.RandomOptions{Seed: treeSeed})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := newEngine(d, tr, []*model.Model{tipCaseModels(t, dtype, cats, alpha)}, parallel.NewSequential(), Options{Specialize: specialize})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	return mk(true), mk(false), d
}

// TestTipCaseEquivalence: the specialized tip-case kernels (lookup tables
// for newview, evaluate, and the sumtable projections) must agree with the
// generic path to ≤1e-12 relative on DNA with ambiguity/gap codes, on AA,
// and with 1 and 4 gamma categories — over the total likelihood, every
// per-pattern site likelihood, and the branch derivatives.
func TestTipCaseEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		dtype alignment.DataType
		taxa  int
		sites int
		cats  int
	}{
		{"DNA-4cats", alignment.DNA, 7, 300, 4},
		{"DNA-1cat", alignment.DNA, 7, 300, 1},
		{"AA-4cats", alignment.AA, 6, 300, 4},
		{"AA-1cat", alignment.AA, 6, 300, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := randomAlignment(t, tc.taxa, tc.sites, tc.dtype, int64(tc.taxa)*100+int64(tc.cats))
			spec, gen, _ := specAndGenericEngines(t, a, tc.dtype, tc.cats, 0.8, 41)
			ls, lg := spec.LogLikelihood(nil), gen.LogLikelihood(nil)
			if math.Abs(ls-lg) > 1e-12*math.Abs(lg) {
				t.Errorf("total lnL: specialized %.15f vs generic %.15f", ls, lg)
			}
			ss, sg := spec.SiteLogLikelihoods(0), gen.SiteLogLikelihoods(0)
			for j := range ss {
				if math.Abs(ss[j]-sg[j]) > 1e-12*(1+math.Abs(sg[j])) {
					t.Fatalf("site %d: specialized %.15f vs generic %.15f", j, ss[j], sg[j])
				}
			}
			// Branch derivatives through the sumtable, with the tip on the q
			// side (root is Tips[0].Back, so q = Tips[0]).
			d1s, d2s := tipCaseDerivs(spec, spec.Tree.Tips[0].Back)
			d1g, d2g := tipCaseDerivs(gen, gen.Tree.Tips[0].Back)
			if math.Abs(d1s-d1g) > 1e-12*(1+math.Abs(d1g)) || math.Abs(d2s-d2g) > 1e-12*(1+math.Abs(d2g)) {
				t.Errorf("q-tip derivatives: specialized (%.12g, %.12g) vs generic (%.12g, %.12g)", d1s, d2s, d1g, d2g)
			}
			// And with the tip on the p side of the same branch.
			d1s, d2s = tipCaseDerivs(spec, spec.Tree.Tips[0])
			d1g, d2g = tipCaseDerivs(gen, gen.Tree.Tips[0])
			if math.Abs(d1s-d1g) > 1e-12*(1+math.Abs(d1g)) || math.Abs(d2s-d2g) > 1e-12*(1+math.Abs(d2g)) {
				t.Errorf("p-tip derivatives: specialized (%.12g, %.12g) vs generic (%.12g, %.12g)", d1s, d2s, d1g, d2g)
			}
		})
	}
}

// tipCaseDerivs evaluates the branch derivatives at p, at the branch's
// current length, off the sumtable projected there.
func tipCaseDerivs(e *Engine, p *tree.Node) (float64, float64) {
	z := []float64{p.Z[0]}
	d1 := make([]float64, 1)
	d2 := make([]float64, 1)
	e.BranchDerivatives(p, z, nil, nil, d1, d2, nil)
	return d1[0], d2[0]
}

// TestTipCaseOrderings pins both tip orderings of a newview step: the same
// physical update issued as (Q=tip, R=inner) and as (Q=inner, R=tip) must
// produce CLVs that agree with the generic kernel to ≤1e-12 in both
// orientations, for DNA (unrolled tip/inner) and AA (generic-width
// tip/inner).
func TestTipCaseOrderings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dtype alignment.DataType
		taxa  int
		sites int
	}{
		{"DNA", alignment.DNA, 8, 200},
		{"AA", alignment.AA, 6, 250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := randomAlignment(t, tc.taxa, tc.sites, tc.dtype, 321)
			spec, gen, _ := specAndGenericEngines(t, a, tc.dtype, 4, 0.9, 17)
			// Valid CLVs everywhere first.
			spec.LogLikelihood(nil)
			gen.LogLikelihood(nil)
			// Find a traversal step with exactly one tip child; the two
			// engines share tree topology (same seed), so the step index is
			// common.
			spec.Tree.ClearX()
			steps := tree.ComputeTraversal(nil, spec.Tree.Tips[0].Back)
			idx := -1
			for i, st := range steps {
				if st.Q.IsTip() != st.R.IsTip() {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Fatal("no mixed tip/inner step in traversal; fixture misconfigured")
			}
			stepOf := func(e *Engine, swap bool) []tree.TraversalStep {
				e.Tree.ClearX()
				st := tree.ComputeTraversal(nil, e.Tree.Tips[0].Back)[idx]
				if swap {
					st.Q, st.R = st.R, st.Q
				}
				return []tree.TraversalStep{st}
			}
			for _, swap := range []bool{false, true} {
				spec.executeSteps(stepOf(spec, swap), nil)
				gen.executeSteps(stepOf(gen, swap), nil)
				p := stepOf(spec, swap)[0].P
				clvSpec, clvGen := spec.clv(p.Index), gen.clv(stepOf(gen, swap)[0].P.Index)
				for k := range clvSpec {
					if math.Abs(clvSpec[k]-clvGen[k]) > 1e-12*(1+math.Abs(clvGen[k])) {
						t.Fatalf("swap=%v entry %d: specialized %.15g vs generic %.15g", swap, k, clvSpec[k], clvGen[k])
					}
				}
			}
		})
	}
}

// TestTipCaseScalingEquivalence forces the numerical scaling path (needScale)
// on a deep, long-branch tree while the tip tables are engaged; specialized
// and generic results must still agree, and scaling must actually fire.
func TestTipCaseScalingEquivalence(t *testing.T) {
	n := 220
	a := randomAlignment(t, n, 60, alignment.DNA, 2025)
	spec, gen, _ := specAndGenericEngines(t, a, alignment.DNA, 2, 5.0, 9)
	// Long branches on both trees to push CLVs below 2^-256.
	for _, e := range []*Engine{spec, gen} {
		for _, b := range e.Tree.Branches() {
			tree.SetBranchLength(b, 0, 1.4)
		}
		e.Tree.ClearX()
	}
	ls, lg := spec.LogLikelihood(nil), gen.LogLikelihood(nil)
	if err := CheckFinite(ls); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ls-lg) > 1e-12*math.Abs(lg) {
		t.Errorf("scaled lnL: specialized %.15f vs generic %.15f", ls, lg)
	}
	fired := false
	for _, sc := range spec.scales {
		for _, v := range sc {
			if v > 0 {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("scaling never triggered on the specialized path; fixture misconfigured")
	}
}

// TestTipTableDecisionUsesOwnerShare audits the table decision on a weighted
// schedule cut into short chunks: at MinChunk 4 every chunk (4-7 patterns)
// sits below the table threshold of this data (twice the 7 codes its taxa
// carry) while each worker's share of the span clears it several times over.
// The decision is sized by the share, so the traversal must charge exactly
// the ops of the same session at the default chunk size — the table price —
// and stay below the generic (Specialize off) price; sized by the chunk it
// would silently drop to the generic body.
func TestTipTableDecisionUsesOwnerShare(t *testing.T) {
	a := randomAlignment(t, 7, 400, alignment.DNA, 88)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const threads, minChunk = 2, 4
	threshold := 2 * maxTipRows(d.Parts[0])
	if share := d.TotalPatterns / threads; share < 4*threshold || 2*minChunk-1 >= threshold {
		t.Fatalf("fixture misconfigured: %d patterns per worker, chunks up to %d, table threshold %d", share, 2*minChunk-1, threshold)
	}
	traversalOps := func(specialize bool, minChunk int) float64 {
		sim, err := parallel.NewSim(threads)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tree.Random(taxaNames(a.NumTaxa()), 1, tree.RandomOptions{Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := NewSharedWith(d, 4, threads, BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Specialize: specialize, Layout: cut(t, sh, schedule.Weighted, minChunk)}
		eng, err := NewSession(sh, tr, []*model.Model{tipCaseModels(t, alignment.DNA, 4, 0.8)}, sim, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.TraverseRoot(tr.Tips[0].Back)
		return sim.Stats().TotalOps
	}
	whole := traversalOps(true, 0)
	short := traversalOps(true, minChunk)
	generic := traversalOps(false, minChunk)
	if short != whole {
		t.Errorf("traversal ops at MinChunk %d = %v, at the default chunk size %v: short chunks lost the tip tables", minChunk, short, whole)
	}
	if short >= generic {
		t.Errorf("specialized traversal ops %v not below generic %v", short, generic)
	}
}

// TestTipTableBitIdentity checks the table builders directly, on the full
// code alphabet and on present-code subsets (a typical unambiguous tip, one
// with ambiguity codes, an all-gap taxon): every listed row must reproduce the
// generic per-pattern accumulation bit for bit, which is what makes
// specialized and generic kernels interchangeable mid-analysis, and every
// unlisted row of the NaN-filled scratch must be left alone.
func TestTipTableBitIdentity(t *testing.T) {
	for _, dtype := range []alignment.DataType{alignment.DNA, alignment.AA} {
		s := dtype.States()
		cats := 4
		n := alignment.NumCodes(dtype)
		m := tipCaseModels(t, dtype, cats, 0.7)
		pm := make([]float64, cats*s*s)
		m.PMatrices(0.13, pm)
		all := make([]byte, n)
		for code := range all {
			all[code] = byte(code)
		}
		gap := alignment.GapCode(dtype)
		subsets := [][]byte{all, {1, 2, 4, 8}, {1, 5, 10, gap}, {gap}, {}}
		if dtype == alignment.AA {
			subsets = [][]byte{all, {0, 7, 19}, {3, 20, 21, gap}, {gap}, {}}
		}
		for _, codes := range subsets {
			listed := make([]bool, n)
			for _, code := range codes {
				listed[code] = true
			}
			poisoned := func(rows int) []float64 {
				buf := make([]float64, rows)
				for i := range buf {
					buf[i] = math.NaN()
				}
				return buf
			}
			tab := buildTipTable(poisoned(n*cats*s), dtype, codes, pm, s, cats)
			left := buildTipSumLeft(poisoned(n*s), dtype, codes, m.Freqs, m.EigenVecs, s)
			right := buildTipSumRight(poisoned(n*s), dtype, codes, m.InvVecsT, s)
			if len(tab) != n*cats*s || len(left) != n*s || len(right) != n*s {
				t.Fatalf("%v codes %v: builders must return the whole code-indexed table", dtype, codes)
			}
			// The dense reference over the same poison: listed rows equal the
			// generic accumulation, unlisted rows are the NaN they were.
			wantTab, wantL, wantR := poisoned(n*cats*s), poisoned(n*s), poisoned(n*s)
			denseTipTable(wantTab, dtype, codes, pm, s, cats)
			denseTipSumLeft(wantL, dtype, codes, m.Freqs, m.EigenVecs, s)
			denseTipSumRight(wantR, dtype, codes, m.InvVecs, s)
			label := fmt.Sprintf("%v codes %v", dtype, codes)
			sameBits(t, label+" P application", tab, wantTab)
			sameBits(t, label+" left projection", left, wantL)
			sameBits(t, label+" right projection", right, wantR)
		}
	}
}

// TestTipAwareOpCosts pins the satellite bugfix: tip-specialized cases must
// be priced below inner cases, the traversal average must sit between them,
// and the Shared span costs must use the tip-aware average (so the weighted
// scheduler and the virtual platform model no longer overprice tip-adjacent
// patterns).
func TestTipAwareOpCosts(t *testing.T) {
	for _, s := range []int{4, 20} {
		inner := opsNewviewCase(s, 4, false, false)
		oneTip := opsNewviewCase(s, 4, true, false)
		bothTip := opsNewviewCase(s, 4, true, true)
		if !(bothTip < oneTip && oneTip < inner) {
			t.Errorf("s=%d: want bothTip %v < oneTip %v < inner %v", s, bothTip, oneTip, inner)
		}
		if opsNewviewCase(s, 4, false, true) != oneTip {
			t.Errorf("s=%d: tip-case cost must be symmetric in the children", s)
		}
		avg := opsNewviewAvg(s, 4, 0.5)
		if !(bothTip < avg && avg < inner) {
			t.Errorf("s=%d: average %v must sit between bothTip %v and inner %v", s, avg, bothTip, inner)
		}
		if opsEvaluateCase(s, 4, true, 1) >= opsEvaluateCase(s, 4, false, 1) {
			t.Errorf("s=%d: specialized evaluate must be cheaper", s)
		}
		if opsSumtableCase(s, 4, true, true) >= opsSumtable(s, 4) {
			t.Errorf("s=%d: specialized sumtable must be cheaper", s)
		}
	}
	if f := tipChildFrac(4); f != 0.75 {
		t.Errorf("tipChildFrac(4) = %v, want 0.75 (3 tips of 4 child slots)", f)
	}
	if f := tipChildFrac(100); math.Abs(f-99.0/196.0) > 1e-15 {
		t.Errorf("tipChildFrac(100) = %v, want 99/196", f)
	}

	a := randomAlignment(t, 6, 40, alignment.DNA, 12)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharedWith(d, 4, 2, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := opsNewviewAvg(4, 4, tipChildFrac(6))
	if got := sh.spans[0].Cost; got != want {
		t.Errorf("span cost %v, want tip-aware average %v", got, want)
	}
	if got := opsNewview(4, 4); got <= want {
		t.Errorf("generic newview cost %v must exceed the tip-aware span cost %v", got, want)
	}

	// The set-up charge follows the build: one tip/tip step on one worker
	// costs the two P-matrix blocks (a first encounter: both computed), per
	// table row one term for every state its code allows, and the tip/tip
	// pattern price; binding the same step again reuses both blocks and
	// charges only the tables and the patterns.
	sim, err := parallel.NewSim(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(6), 1, tree.RandomOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(d, tr, []*model.Model{tipCaseModels(t, alignment.DNA, 4, 0.8)}, sim, Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range tree.ComputeTraversal(nil, tr.Tips[0].Back) {
		if !st.Q.IsTip() || !st.R.IsTip() {
			continue
		}
		part := d.Parts[0]
		rows := len(part.Codes[st.Q.Index]) + len(part.Codes[st.R.Index])
		if rows >= 2*alignment.NumCodes(alignment.DNA) {
			t.Fatal("fixture tips carry every code; the charge would not tell rows built from rows possible")
		}
		terms := tipSetStates(alignment.DNA, part.Codes[st.Q.Index]) + tipSetStates(alignment.DNA, part.Codes[st.R.Index])
		if terms <= rows || terms >= 4*rows {
			t.Fatalf("fixture tips sum %d terms over %d rows; want ambiguity codes but not only gaps", terms, rows)
		}
		if st.Q.Z[0] == st.R.Z[0] {
			t.Fatal("fixture children share a branch length; the second block would be a reuse")
		}
		eng.executeSteps([]tree.TraversalStep{st}, nil)
		bound := float64(part.PatternCount)*opsNewviewCase(4, 4, true, true) + opsTipTable(4, 4, terms)
		if got, want := sim.Stats().TotalOps, bound+2*4*4*4*4; got != want {
			t.Errorf("tip/tip step charged %v ops, want %v (%d table rows of %d terms built)", got, want, rows, terms)
		}
		eng.executeSteps([]tree.TraversalStep{st}, nil)
		if got, want := sim.Stats().TotalOps, 2*bound+2*4*4*4*4; got != want {
			t.Errorf("the step and its repeat charged %v ops, want %v (no P block computed twice)", got, want)
		}
		return
	}
	t.Fatal("no tip/tip step in the traversal; fixture misconfigured")
}
