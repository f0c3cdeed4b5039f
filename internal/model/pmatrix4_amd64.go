package model

import (
	"math"

	"phylo/internal/cpufeat"
)

// pmatrices4AVX fills dst[:16·len(rates)] with the 4-state blocks
// P(rates[c]·t) of the eigensystem (l, v, u) = (Lambda, V, V^-1), bit for bit
// what pmatrix4 computes with math.Exp where math.Exp runs its FMA sequence.
// It returns false without writing when any argument lambda_k·t_c is NaN or
// outside [-700, 700]. rates must not be empty.
//
//go:noescape
func pmatrices4AVX(dst []float64, l *[4]float64, v, u *[16]float64, rates []float64, t float64) bool

// hostPMatrix is whether the kernel reproduces math.Exp on this host;
// vectorPMatrix is whether PMatrices runs it, the same but for tests
// (SetVectorPMatrix).
var (
	hostPMatrix   = cpufeat.AVX2 && cpufeat.FMA && expFMAMatches()
	vectorPMatrix = hostPMatrix
)

// expProbes are arguments on which math.Exp's FMA and SSE sequences round
// differently (the GODEBUG=cpu.fma=off run of TestHostPMatrixIsMathExps).
var expProbes = [8]float64{
	-0.3567439074285613, -0.03998776221889851, -5.780678908578634, -1.0556343396048473,
	-2.211501774682181, -0.29877537184880915, -2.642657154817912, -5.744042848898937,
}

// expFMAMatches runs the kernel on the probes as the eigenvalues of an
// identity eigensystem at t = 1, so P is diag(exp(probe)), and reports whether
// every one is math.Exp's bits. CPUID is not enough: math.Exp decides its
// sequence by internal/cpu, which GODEBUG=cpu.fma=off overrides; there the
// scalar code runs.
func expFMAMatches() bool {
	id, rate := [16]float64{0: 1, 5: 1, 10: 1, 15: 1}, []float64{1}
	var p [16]float64
	for i := 0; i < len(expProbes); i += 4 {
		l := (*[4]float64)(expProbes[i : i+4])
		if !pmatrices4AVX(p[:], l, &id, &id, rate, 1) {
			return false
		}
		for k, x := range l {
			if math.Float64bits(p[5*k]) != math.Float64bits(math.Exp(x)) {
				return false
			}
		}
	}
	return true
}

// pmatrices4Vec is PMatrices for four states on the kernel, or false where it
// does not run or refuses t.
func (m *Model) pmatrices4Vec(t float64, dst []float64) bool {
	rates := m.CatRates[:m.NumCats]
	if !vectorPMatrix || len(rates) == 0 || len(dst) < 16*len(rates) {
		return false
	}
	return pmatrices4AVX(dst, (*[4]float64)(m.EigenVals), (*[16]float64)(m.EigenVecs), (*[16]float64)(m.InvVecs), rates, t)
}
