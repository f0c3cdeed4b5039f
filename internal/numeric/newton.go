package numeric

import "math"

// NewtonState is an inverted-control, safeguarded Newton-Raphson iteration for
// maximizing a one-dimensional concave objective (the log likelihood as a
// function of one branch length). The caller asks for the next abscissa with
// Point, evaluates the first and second derivative of the objective there, and
// reports them with Observe.
//
// The control is inverted so that the caller owns the evaluation: the branch
// optimizer holds one NewtonState per unknown of a partition group, asks all
// unconverged ones for their point, evaluates every derivative in a single
// parallel region, and feeds each state its own result. A state reads nothing
// but the derivatives reported to it, so its trajectory does not depend on
// which other states share the region — which is why oldPAR (one partition
// per group) and newPAR (all partitions in one group) agree bit for bit.
type NewtonState struct {
	X         float64 // current abscissa (branch length)
	Min, Max  float64 // hard clamp interval
	Tol       float64 // relative step tolerance for convergence
	Converged bool
	Steps     int
}

// NewNewtonState starts a Newton iteration at x0 confined to [min, max].
func NewNewtonState(x0, min, max, tol float64) NewtonState {
	if x0 < min {
		x0 = min
	}
	if x0 > max {
		x0 = max
	}
	return NewtonState{X: x0, Min: min, Max: max, Tol: tol}
}

// Point returns the abscissa at which the caller must evaluate d/dx and
// d2/dx2 of the objective.
func (s *NewtonState) Point() float64 { return s.X }

// Observe consumes the derivatives at the current point and advances one
// safeguarded Newton step. It returns true when the iteration has converged.
func (s *NewtonState) Observe(d1, d2 float64) bool {
	if s.Converged {
		return true
	}
	s.Steps++
	x := s.X
	var next float64
	switch {
	case math.IsNaN(d1) || math.IsNaN(d2):
		// Numerical trouble: shrink toward the lower bound, which for branch
		// lengths is always a safe, well-conditioned region.
		next = math.Max(s.Min, 0.5*x)
	case d2 < 0:
		// Proper concave region: standard Newton step.
		next = x - d1/d2
	default:
		// Convex or flat: move uphill along the gradient with a bounded
		// multiplicative step, mirroring RAxML's makenewz safeguards.
		if d1 > 0 {
			next = x * 4
		} else {
			next = x * 0.25
		}
	}
	if next < s.Min {
		next = s.Min
	}
	if next > s.Max {
		next = s.Max
	}
	// Convergence: small relative movement, or pinned at a boundary while the
	// gradient keeps pushing outward.
	if math.Abs(next-x) <= s.Tol*math.Max(x, 1e-8) {
		s.X = next
		s.Converged = true
		return true
	}
	if (next == s.Min && x == s.Min && d1 < 0) || (next == s.Max && x == s.Max && d1 > 0) {
		s.Converged = true
		return true
	}
	s.X = next
	return false
}
