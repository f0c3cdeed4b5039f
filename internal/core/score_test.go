package core

import (
	"fmt"
	"math"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// TestLnLLaneMatchesEvaluate: on every branch, lane r of the derivative
// region's lnL lane (BranchDerivatives there, at the branch's own lengths)
// equals lane r of Evaluate at the same branch and lengths, to a relative
// 1e-13 at lengths of at least 1e-3 and 1e-8 with every branch at the 1e-8
// clamp, where the sumtable's terms cancel: a site likelihood there scales
// with z. Fixtures: the mixed DNA + AA dataset at one
// and four categories and the 160-taxon tree whose CLVs scale; every branch
// at its own length, 1e-3, 3, 30 and the clamp; nil weights and WeightSets of
// R = 1 and 3; the sequential, virtual and goroutine executors on both
// backends. The worst relative differences measured were 5.5e-14 at lengths
// of at least 1e-3 (every branch at 1e-3 on the mixed fixture at one
// category: random columns on short branches leave small site likelihoods
// that the sumtable's terms cancel towards) and 1.2e-9 at the clamp.
func TestLnLLaneMatchesEvaluate(t *testing.T) {
	type fixture struct {
		name   string
		d      *alignment.CompressedData
		models []*model.Model
		tree   func() *tree.Tree
	}
	var fixtures []fixture
	for _, cats := range []int{1, 4} {
		d, models := mixedFixture(t, cats, 11)
		fixtures = append(fixtures, fixture{fmt.Sprintf("mixed%dcat", cats), d, models, func() *tree.Tree {
			tr, err := tree.Random(taxaNames(10), 1, tree.RandomOptions{Seed: 12})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}})
	}
	const deep = 160
	a := randomAlignment(t, deep, 40, alignment.DNA, 2024)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jc, err := model.JC69(2, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"deep160", d, []*model.Model{jc}, func() *tree.Tree {
		tr, err := tree.Random(taxaNames(deep), 1, tree.RandomOptions{Seed: 5, MeanBranchLength: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}})

	pool, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sim, err := parallel.NewSim(3)
	if err != nil {
		t.Fatal(err)
	}
	execs := []struct {
		name string
		exec *parallel.Pool
	}{{"sequential", parallel.NewSequential()}, {"sim3", sim}, {"pool3", pool.Session()}}

	const own = 0
	lengths := []float64{own, 1e-3, 3, 30, tree.MinBranchLen}
	worst, worstClamp := 0.0, 0.0
	scaled := false
	for _, fx := range fixtures {
		ws1, err := NewWeightSet(fx.d, 1, 21)
		if err != nil {
			t.Fatal(err)
		}
		ws3, err := NewWeightSet(fx.d, 3, 22)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendGeneric, BackendFused} {
			for _, ex := range execs {
				models := make([]*model.Model, len(fx.models))
				for i, m := range fx.models {
					models[i] = m.Clone()
				}
				tr := fx.tree()
				eng, err := newEngineOn(backend, fx.d, tr, models, ex.exec, Options{Specialize: true})
				if err != nil {
					t.Fatal(err)
				}
				z := make([]float64, eng.NumPartitions())
				for _, length := range lengths {
					if length != own {
						for _, b := range tr.Branches() {
							tree.SetBranchLength(b, 0, length)
						}
						eng.Tree.ClearX()
					}
					tol := 1e-13
					if length == tree.MinBranchLen {
						tol = 1e-8
					}
					for _, w := range []*WeightSet{nil, ws1, ws3} {
						R := 1
						if w != nil {
							R = w.Replicates()
						}
						got, want := make([]float64, R), make([]float64, R)
						for _, b := range tr.Branches() {
							for ip := range z {
								z[ip] = b.Z[eng.BranchSlot(ip)]
							}
							eng.BranchDerivatives(b, z, nil, w, nil, nil, got)
							eng.Evaluate(b, nil, w, want, nil)
							for r := range want {
								rel := math.Abs(got[r]-want[r]) / math.Abs(want[r])
								if !(rel <= tol) {
									t.Fatalf("%s %v %s length %g R=%d branch %d-%d lane %d: lnL lane %v, Evaluate %v (relative %.2g, tolerance %g)",
										fx.name, backend, ex.name, length, R, b.Index, b.Back.Index, r, got[r], want[r], rel, tol)
								}
								if length == tree.MinBranchLen {
									worstClamp = max(worstClamp, rel)
								} else {
									worst = max(worst, rel)
								}
							}
						}
					}
					for _, sc := range eng.scales {
						for _, v := range sc {
							scaled = scaled || v > 0
						}
					}
				}
				eng.Release()
			}
		}
	}
	if !scaled {
		t.Fatal("no CLV scaled: the deep fixture does not reach the scaling exponents")
	}
	t.Logf("worst relative |lnL lane - Evaluate|: %.2g at lengths >= 1e-3, %.2g at the clamp", worst, worstClamp)
}
