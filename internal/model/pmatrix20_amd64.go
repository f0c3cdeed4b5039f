package model

// pmatrices20AVX fills dst[:400·len(e)/20] with the 20-state blocks,
// column-major, of the categories whose exponentials e holds (e[c·20+k] =
// exp(lambda_k t_c)), from vT = EigenVecsT and uT = InvVecsT; ve is its
// scratch. len(e) is a positive multiple of 20.
//
//go:noescape
func pmatrices20AVX(dst, e, vT, uT []float64, ve *[400]float64)

// pmatrix20Batch is how many categories one kernel call takes: their
// arguments and exponentials live on the stack.
const pmatrix20Batch = 8

// pmatrices20Vec is PMatrices for twenty states on the kernel, or false where
// it does not run. The exponentials are Exps', of the arguments pmatrixCols
// forms: lambda_k times the category's t_c clamped at zero.
//
//plk:hotpath
func (m *Model) pmatrices20Vec(t float64, dst []float64) bool {
	const s, ss = 20, 400
	rates := m.CatRates[:m.NumCats]
	if !PMatrix20Kernel.On() || m.States != s || len(rates) == 0 || len(dst) < ss*len(rates) ||
		len(m.EigenVals) < s || len(m.EigenVecsT) < ss || len(m.InvVecsT) < ss {
		return false
	}
	var e [pmatrix20Batch * s]float64
	var ve [ss]float64
	l := (*[s]float64)(m.EigenVals)
	for c0 := 0; c0 < len(rates); c0 += pmatrix20Batch {
		batch := rates[c0:min(c0+pmatrix20Batch, len(rates))]
		x := e[:s*len(batch)]
		for c, r := range batch {
			tc := clampNeg(r * t)
			for k, lk := range l {
				x[c*s+k] = lk * tc
			}
		}
		Exps(x)
		pmatrices20AVX(dst[c0*ss:], x, m.EigenVecsT, m.InvVecsT, &ve)
	}
	return true
}
