package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/tree"
)

// TestPMatrices20MatchCols: every 20-state block PMatrices writes on the AVX
// kernel is pmatrixCols' of its category by Float64bits, Exps on and off,
// over SYN20 and random reversible models, 1 to 9 categories (past one
// kernel call's batch), at the branch-length bounds, zero, lengths a span can
// hand over unclamped (negative, -0, NaN) and arguments beyond Exps' guard.
func TestPMatrices20MatchCols(t *testing.T) {
	if !PMatrix20Kernel.Host() {
		t.Skip("the 20-state PMatrices kernel does not run here: pmatrixCols is the only realisation")
	}
	hostExp := ExpsKernel.Set(true)
	t.Cleanup(func() { ExpsKernel.Set(hostExp) })
	rng := rand.New(rand.NewSource(20))
	zs := []float64{0, tree.MinBranchLen, tree.MaxBranchLen, 0.1, 2.5, 1e4, -0.3, math.Copysign(0, -1), math.NaN()}
	var models []*Model
	for _, cats := range []int{1, 4, 9} {
		m, err := SYN20(cats, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for round := 0; round < 12; round++ {
		freqs, ex := make([]float64, 20), make([]float64, NumExRates(20))
		for i := range freqs {
			freqs[i] = 0.01 + rng.Float64()
		}
		for i := range ex {
			ex[i] = MinRate + 20*rng.Float64()*rng.Float64()
		}
		m, err := New(alignment.AA, freqs, ex, MinAlpha*math.Pow(MaxAlpha/MinAlpha, rng.Float64()), 1+round%9)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for _, exps := range []bool{true, false} {
		ExpsKernel.Set(exps)
		for mi, m := range models {
			const ss = 400
			got, want := make([]float64, m.NumCats*ss), make([]float64, ss)
			for _, z := range zs {
				label := fmt.Sprintf("Exps kernel %v, model %d (%d categories), z=%v", ExpsKernel.On(), mi, m.NumCats, z)
				if !m.pmatrices20Vec(z, got) {
					t.Fatalf("%s: the kernel declined", label)
				}
				for c, rate := range m.CatRates {
					m.pmatrixCols(rate*z, want)
					for k, w := range want {
						if g := got[c*ss+k]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s: P_%d[%d] = %v (%#x), pmatrixCols %v (%#x)", label, c, k, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}
