// Package numeric provides the numerical substrate for the phylogenetic
// likelihood kernel: a symmetric eigensolver (cyclic Jacobi), Brent's
// derivative-free minimizer, the regularized incomplete gamma function,
// gamma-distribution quantiles, and a safeguarded Newton-Raphson driver.
//
// Everything is implemented from scratch on top of the standard library so
// that the library remains dependency-free.
package numeric

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned by iterative routines that exceed their
// iteration budget without meeting their tolerance.
var ErrNoConvergence = errors.New("numeric: iteration limit reached without convergence")

// JacobiWork is the scratch length JacobiEigenInto needs for an n x n matrix.
func JacobiWork(n int) int { return n*n + n }

// JacobiEigenInto computes the eigendecomposition of the dense symmetric
// n x n matrix a (row-major, length n*n) using the cyclic Jacobi rotation
// method, into caller-owned storage: the eigenvalues into values (length n)
// and the column eigenvectors into v (n*n, row-major, v[i*n+k] is component
// i of eigenvector k) such that
//
//	a = v * diag(values) * v^T
//
// work is scratch of length JacobiWork(n). The input slice is not modified.
// Eigenpairs are sorted by ascending eigenvalue. Jacobi is slow for large n
// but extremely robust; phylogenetic models need n = 4 or n = 20, where it
// is both fast and accurate. On error values and v hold no usable result.
func JacobiEigenInto(values, v, work, a []float64, n int) error {
	if len(a) != n*n || len(values) != n || len(v) != n*n || len(work) < JacobiWork(n) {
		return errors.New("numeric: JacobiEigen: matrix or workspace length does not match n")
	}
	// Work on a copy; verify symmetry as we go.
	w := work[:n*n]
	copy(w, a)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Abs(w[i*n+j] - w[j*n+i])
			scale := math.Max(math.Abs(w[i*n+j]), math.Abs(w[j*n+i]))
			if d > 1e-9*math.Max(1, scale) {
				return errors.New("numeric: JacobiEigen: matrix is not symmetric")
			}
		}
	}

	clear(v)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w[i*n+j] * w[i*n+j]
			}
		}
		if off < 1e-300 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w[p*n+q]
				if apq == 0 {
					continue
				}
				app := w[p*n+p]
				aqq := w[q*n+q]
				// Skip rotations that cannot change anything at double
				// precision; this is the classic convergence guard.
				if math.Abs(apq) < 1e-18*(math.Abs(app)+math.Abs(aqq)+1e-300) {
					w[p*n+q] = 0
					w[q*n+p] = 0
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e15 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				tau := s / (1 + c)

				w[p*n+p] = app - t*apq
				w[q*n+q] = aqq + t*apq
				w[p*n+q] = 0
				w[q*n+p] = 0
				for i := 0; i < n; i++ {
					if i != p && i != q {
						aip := w[i*n+p]
						aiq := w[i*n+q]
						w[i*n+p] = aip - s*(aiq+tau*aip)
						w[i*n+q] = aiq + s*(aip-tau*aiq)
						w[p*n+i] = w[i*n+p]
						w[q*n+i] = w[i*n+q]
					}
					vip := v[i*n+p]
					viq := v[i*n+q]
					v[i*n+p] = vip - s*(viq+tau*vip)
					v[i*n+q] = viq + s*(vip-tau*viq)
				}
			}
		}
		if sweep == maxSweeps-1 {
			return ErrNoConvergence
		}
	}
	for i := 0; i < n; i++ {
		values[i] = w[i*n+i]
	}
	sortEigenAscending(values, v, work[n*n:n*n+n], n)
	return nil
}

// sortEigenAscending sorts eigenvalues ascending and permutes the eigenvector
// columns accordingly (simple insertion sort; n is 4 or 20 in practice). col
// is n entries of scratch for the column in flight.
func sortEigenAscending(values, v, col []float64, n int) {
	for i := 1; i < n; i++ {
		val := values[i]
		for r := 0; r < n; r++ {
			col[r] = v[r*n+i]
		}
		j := i - 1
		for j >= 0 && values[j] > val {
			values[j+1] = values[j]
			for r := 0; r < n; r++ {
				v[r*n+j+1] = v[r*n+j]
			}
			j--
		}
		values[j+1] = val
		for r := 0; r < n; r++ {
			v[r*n+j+1] = col[r]
		}
	}
}
