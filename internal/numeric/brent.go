package numeric

import "math"

// BrentResult reports the outcome of a Brent minimization.
type BrentResult struct {
	X          float64 // abscissa of the minimum
	F          float64 // function value at X
	Iterations int     // iterations consumed
	Converged  bool    // whether the tolerance was met within the budget
}

const (
	brentGolden = 0.3819660112501051 // (3 - sqrt(5)) / 2
	brentZeps   = 1e-12
)

// BrentMinimize locates a local minimum of f inside [lo, hi] using Brent's
// method (parabolic interpolation with golden-section fallback), the same
// scheme RAxML uses for optimizing the alpha shape parameter and the GTR
// exchangeability rates. guess must lie inside [lo, hi]; tol is the relative
// x tolerance; maxIter caps the iteration count.
func BrentMinimize(f func(float64) float64, lo, guess, hi, tol float64, maxIter int) BrentResult {
	if lo > hi {
		lo, hi = hi, lo
	}
	if guess < lo || guess > hi {
		guess = 0.5 * (lo + hi)
	}
	st := NewBrentState(lo, guess, hi, tol)
	fx := f(guess)
	st.Seed(fx)
	for i := 0; i < maxIter; i++ {
		x, done := st.Next()
		if done {
			return BrentResult{X: st.X, F: st.FX, Iterations: i, Converged: true}
		}
		st.Observe(x, f(x))
	}
	return BrentResult{X: st.X, F: st.FX, Iterations: maxIter, Converged: false}
}

// BrentState is an *inverted-control* Brent minimizer: instead of calling the
// objective itself, it proposes evaluation points via Next and receives values
// via Observe, so the caller owns the evaluation. The model optimizer holds
// one BrentState per partition of a group, collects one proposal from every
// unconverged state, scores all of them in a single parallel likelihood
// evaluation, and feeds each state its own partition's value. A state reads
// nothing but the values reported to it, so its trajectory does not depend on
// which other states share the evaluation (see NewtonState).
type BrentState struct {
	A, B       float64 // current bracket
	X, W, V    float64 // best, second best, previous second best
	FX, FW, FV float64
	D, E       float64 // current and previous step
	Tol        float64
	seeded     bool
	pending    float64 // abscissa proposed by Next, consumed by Observe
	hasPending bool
}

// NewBrentState prepares a Brent iteration over bracket [lo, hi] starting at
// guess (which must satisfy lo <= guess <= hi).
func NewBrentState(lo, guess, hi, tol float64) BrentState {
	return BrentState{A: lo, B: hi, X: guess, W: guess, V: guess, Tol: tol}
}

// Seed supplies f(guess) and must be called once before the first Next.
func (s *BrentState) Seed(fGuess float64) {
	s.FX, s.FW, s.FV = fGuess, fGuess, fGuess
	s.seeded = true
}

// Next returns the next abscissa to evaluate, or done=true when the bracket
// has collapsed to the tolerance (the minimum is then (s.X, s.FX)).
func (s *BrentState) Next() (x float64, done bool) {
	if !s.seeded {
		panic("numeric: BrentState.Next called before Seed")
	}
	xm := 0.5 * (s.A + s.B)
	tol1 := s.Tol*math.Abs(s.X) + brentZeps
	tol2 := 2 * tol1
	if math.Abs(s.X-xm) <= tol2-0.5*(s.B-s.A) {
		return s.X, true
	}
	var d float64
	if math.Abs(s.E) > tol1 {
		// Attempt parabolic interpolation through (x, w, v).
		r := (s.X - s.W) * (s.FX - s.FV)
		q := (s.X - s.V) * (s.FX - s.FW)
		p := (s.X-s.V)*q - (s.X-s.W)*r
		q = 2 * (q - r)
		if q > 0 {
			p = -p
		}
		q = math.Abs(q)
		etemp := s.E
		s.E = s.D
		if math.Abs(p) >= math.Abs(0.5*q*etemp) || p <= q*(s.A-s.X) || p >= q*(s.B-s.X) {
			// Reject: golden-section step into the larger segment.
			if s.X >= xm {
				s.E = s.A - s.X
			} else {
				s.E = s.B - s.X
			}
			d = brentGolden * s.E
		} else {
			d = p / q
			u := s.X + d
			if u-s.A < tol2 || s.B-u < tol2 {
				d = math.Copysign(tol1, xm-s.X)
			}
		}
	} else {
		if s.X >= xm {
			s.E = s.A - s.X
		} else {
			s.E = s.B - s.X
		}
		d = brentGolden * s.E
	}
	s.D = d
	var u float64
	if math.Abs(d) >= tol1 {
		u = s.X + d
	} else {
		u = s.X + math.Copysign(tol1, d)
	}
	s.pending = u
	s.hasPending = true
	return u, false
}

// Observe records f(x) for the abscissa returned by the last Next call and
// updates the bracket state.
func (s *BrentState) Observe(x, fx float64) {
	if !s.hasPending {
		panic("numeric: BrentState.Observe without a pending Next")
	}
	s.hasPending = false
	u, fu := x, fx
	if fu <= s.FX {
		if u >= s.X {
			s.A = s.X
		} else {
			s.B = s.X
		}
		s.V, s.FV = s.W, s.FW
		s.W, s.FW = s.X, s.FX
		s.X, s.FX = u, fu
		return
	}
	if u < s.X {
		s.A = u
	} else {
		s.B = u
	}
	if fu <= s.FW || s.W == s.X {
		s.V, s.FV = s.W, s.FW
		s.W, s.FW = u, fu
	} else if fu <= s.FV || s.V == s.X || s.V == s.W {
		s.V, s.FV = u, fu
	}
}
