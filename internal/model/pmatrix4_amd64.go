package model

// pmatrices4AVX fills dst[:16·len(rates)] with the 4-state blocks
// P(rates[c]·t) of the eigensystem (l, v, u) = (Lambda, V, V^-1), bit for bit
// what pmatrix4 computes with math.Exp where math.Exp runs its FMA sequence.
// It returns false without writing when any argument lambda_k·t_c is NaN or
// outside [-700, 700]. rates must not be empty.
//
//go:noescape
func pmatrices4AVX(dst []float64, l *[4]float64, v, u *[16]float64, rates []float64, t float64) bool

// pmatrices4Vec is PMatrices for four states on the kernel, or false where it
// does not run or refuses t.
func (m *Model) pmatrices4Vec(t float64, dst []float64) bool {
	rates := m.CatRates[:m.NumCats]
	if !PMatrix4Kernel.On() || len(rates) == 0 || len(dst) < 16*len(rates) {
		return false
	}
	return pmatrices4AVX(dst, (*[4]float64)(m.EigenVals), (*[16]float64)(m.EigenVecs), (*[16]float64)(m.InvVecs), rates, t)
}
