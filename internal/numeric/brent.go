package numeric

import "math"

const (
	brentGolden = 0.3819660112501051 // (3 - sqrt(5)) / 2
	brentZeps   = 1e-12

	// The bracketing walk probes bracketStep·|guess| away from the guess and
	// multiplies the stride by bracketGrow for every downhill step. Neither is
	// tuned: steps of 0.05–0.25 and growths of 1.6–3 cost within 5 % of each
	// other in regions of a model optimization (DESIGN.md "Why Brent brackets
	// first").
	bracketStep = 0.1
	bracketGrow = 2
)

// BrentState is an *inverted-control* Brent minimizer: instead of calling the
// objective itself, it proposes evaluation points via Next and receives values
// via Observe, so the caller owns the evaluation. The model optimizer holds
// one BrentState per partition of a group, collects one proposal from every
// unconverged state, scores all of them in a single parallel likelihood
// evaluation, and feeds each state its own partition's value. A state reads
// nothing but the values reported to it, so its trajectory does not depend on
// which other states share the evaluation (see NewtonState).
//
// A solve has two phases inside the one Next / Observe machine. It first
// brackets the minimum next to the guess, the way RAxML's brakGeneric does
// before brentGeneric: probe one stride above the guess, turn around if that
// is uphill, and walk downhill with a growing stride until the value rises or
// a bound of the legal interval is reached. Every probe tightens A, B and
// ranks into X, W, V by the rules of Brent's method itself, so the moment
// both sides are closed the same state continues as Brent's method (parabolic
// interpolation with golden-section fallback) on a bracket a few strides
// wide. A parameter that barely moved since it was last optimized — the
// common case after the first round of a model optimization — is therefore
// confirmed with a handful of evaluations instead of a golden-section search
// of the whole legal interval. A value that is NaN counts as +Inf, and a probe
// that is not strictly better than the best point counts as uphill, so a flat
// or undefined stretch ends the walk instead of extending it.
type BrentState struct {
	A, B       float64 // current bracket
	X, W, V    float64 // best, second best, previous second best
	FX, FW, FV float64
	D, E       float64 // current and previous step
	Tol        float64

	lo, hi     float64 // the legal interval; A and B only tighten inside it
	h          float64 // signed stride of the next bracketing probe; 0 once bracketed
	turned     bool    // bracketing: the side behind the stride is closed already
	seeded     bool
	hasPending bool // Next has proposed an abscissa Observe has not consumed
}

// NewBrentState prepares a minimization over the legal interval [lo, hi]
// starting at guess (which must satisfy lo <= guess <= hi). The first stride
// is bracketStep·|guess|, at least ten times the convergence tolerance at the
// guess, and points inward when the guess sits on a bound.
func NewBrentState(lo, guess, hi, tol float64) BrentState {
	s := BrentState{A: lo, B: hi, X: guess, W: guess, V: guess, Tol: tol, lo: lo, hi: hi}
	s.h = math.Max(bracketStep*math.Abs(guess), 10*s.tol1())
	if guess >= hi {
		s.h = -s.h
	}
	s.turned = guess <= lo || guess >= hi
	return s
}

// Seed supplies f(guess) and must be called once before the first Next.
func (s *BrentState) Seed(fGuess float64) {
	s.FX, s.FW, s.FV = fGuess, fGuess, fGuess
	s.seeded = true
}

// tol1 is the absolute x tolerance at the current best point.
func (s *BrentState) tol1() float64 { return s.Tol*math.Abs(s.X) + brentZeps }

// Next returns the next abscissa to evaluate, or done=true when the bracket
// has collapsed to the tolerance (the minimum is then (s.X, s.FX)). Every
// proposal lies inside the legal interval and differs from s.X.
func (s *BrentState) Next() (x float64, done bool) {
	if !s.seeded {
		panic("numeric: BrentState.Next called before Seed")
	}
	xm := 0.5 * (s.A + s.B)
	tol1 := s.tol1()
	tol2 := 2 * tol1
	if math.Abs(s.X-xm) <= tol2-0.5*(s.B-s.A) {
		return s.X, true
	}
	s.hasPending = true
	if s.h != 0 {
		// Bracketing: one stride on from the best point, clamped. X is never
		// on the bound the stride points at (see Observe).
		return math.Min(math.Max(s.X+s.h, s.lo), s.hi), false
	}
	// Golden-section step into the larger segment, unless the parabola
	// through (x, w, v) offers an acceptable one. The acceptance is written
	// so that a NaN (two infinite values among the three) rejects.
	golden := true
	var d float64
	if math.Abs(s.E) > tol1 {
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
		if math.Abs(p) < math.Abs(0.5*q*etemp) && p > q*(s.A-s.X) && p < q*(s.B-s.X) {
			golden = false
			d = p / q
			u := s.X + d
			if u-s.A < tol2 || s.B-u < tol2 {
				d = math.Copysign(tol1, xm-s.X)
			}
		}
	}
	if golden {
		if s.X >= xm {
			s.E = s.A - s.X
		} else {
			s.E = s.B - s.X
		}
		d = brentGolden * s.E
	}
	s.D = d
	if math.Abs(d) >= tol1 {
		return s.X + d, false
	}
	return s.X + math.Copysign(tol1, d), false
}

// Observe records f(x) for the abscissa returned by the last Next call and
// updates the bracket state.
func (s *BrentState) Observe(x, fx float64) {
	if !s.hasPending {
		panic("numeric: BrentState.Observe without a pending Next")
	}
	s.hasPending = false
	u, fu := x, fx
	if math.IsNaN(fu) {
		fu = math.Inf(1)
	}
	bracketing := s.h != 0
	if fu < s.FX || (fu == s.FX && !bracketing) {
		if u >= s.X {
			s.A = s.X
		} else {
			s.B = s.X
		}
		s.V, s.FV = s.W, s.FW
		s.W, s.FW = s.X, s.FX
		s.X, s.FX = u, fu
		if bracketing {
			// Downhill: the point left behind closes that side; keep walking
			// unless this step arrived on a bound.
			s.h *= bracketGrow
			s.turned = true
			if u <= s.lo || u >= s.hi {
				s.bracketed()
			}
		}
		return
	}
	if u < s.X {
		s.A = u
	} else {
		s.B = u
	}
	// While bracketing, u always ranks: the closing probe is the third point
	// of the triple (A, X, B) even when both earlier points beat it.
	if fu <= s.FW || s.W == s.X {
		s.V, s.FV = s.W, s.FW
		s.W, s.FW = u, fu
	} else if bracketing || fu <= s.FV || s.V == s.X || s.V == s.W {
		s.V, s.FV = u, fu
	}
	if bracketing {
		// Uphill: this side is closed. Done if the other one is, else probe it.
		if s.turned {
			s.bracketed()
		} else {
			s.h, s.turned = -s.h, true
		}
	}
}

// bracketed ends the bracketing phase: A < X < B hold evaluated points (or X
// sits on a bound of the legal interval), and the step memory is set to the
// bracket's width so that Brent's first steps may be parabolic wherever the
// parabola's vertex falls inside the bracket.
func (s *BrentState) bracketed() {
	s.h = 0
	s.E = s.B - s.A
	s.D = s.E
}
