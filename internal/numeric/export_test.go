package numeric

import (
	"errors"
	"math"
)

// Test-only entry points: the allocating and lgamma-computing wrappers the
// tests call, over the forms the program uses (JacobiEigenInto,
// incompleteGammaP, gammaQuantile), and the dense matrix helpers the
// eigensolver tests check their decompositions with.

// JacobiEigen is JacobiEigenInto into freshly allocated values and
// eigenvectors.
func JacobiEigen(a []float64, n int) (values []float64, v []float64, err error) {
	if len(a) != n*n {
		return nil, nil, errors.New("numeric: JacobiEigen: matrix length does not match n*n")
	}
	values = make([]float64, n)
	v = make([]float64, n*n)
	if err := JacobiEigenInto(values, v, make([]float64, JacobiWork(n)), a, n); err != nil {
		return nil, nil, err
	}
	return values, v, nil
}

// IncompleteGammaP is incompleteGammaP with lgamma(a) computed.
func IncompleteGammaP(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	return incompleteGammaP(a, x, lg)
}

// IncompleteGammaQ computes the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func IncompleteGammaQ(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if math.IsInf(x, 1) {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		return 1 - gammaSeries(a, x, lg)
	}
	return gammaContinuedFraction(a, x, lg)
}

// GammaQuantile is gammaQuantile with lgamma(shape) and lgamma(shape+1)
// computed.
func GammaQuantile(p, shape float64) float64 {
	lg, _ := math.Lgamma(shape)
	lg1, _ := math.Lgamma(shape + 1)
	return gammaQuantile(p, shape, lg, lg1)
}

// MatVec computes y = A x for a dense row-major n x n matrix.
func MatVec(a []float64, x []float64, n int) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		row := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			s += row[j] * x[j]
		}
		y[i] = s
	}
	return y
}

// MatMul computes C = A B for dense row-major n x n matrices.
func MatMul(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			brow := b[k*n : (k+1)*n]
			crow := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// Transpose returns the transpose of a dense row-major n x n matrix.
func Transpose(a []float64, n int) []float64 {
	t := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t[j*n+i] = a[i*n+j]
		}
	}
	return t
}
