package numeric

import "math"

// IncompleteGammaP computes the regularized lower incomplete gamma function
//
//	P(a, x) = gamma(a, x) / Gamma(a) = 1/Gamma(a) * Int_0^x t^(a-1) e^-t dt
//
// for a > 0, x >= 0, using the series expansion for x < a+1 and the
// continued-fraction expansion otherwise (Numerical Recipes gser/gcf scheme,
// re-derived). Accuracy is ~1e-14 over the parameter ranges used by discrete
// gamma rates (a in [0.005, 500]).
func IncompleteGammaP(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	return incompleteGammaP(a, x, lg)
}

// incompleteGammaP is IncompleteGammaP given lg = lgamma(a), which callers
// evaluating many points at one a compute once.
func incompleteGammaP(a, x, lg float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1
	}
	if x < a+1 {
		return gammaSeries(a, x, lg)
	}
	return 1 - gammaContinuedFraction(a, x, lg)
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

// gammaSeries evaluates P(a,x) by its power series, lg = lgamma(a); converges
// fast for x < a+1.
func gammaSeries(a, x, lg float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < 1000; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a,x) by the Lentz continued fraction,
// lg = lgamma(a); converges fast for x >= a+1.
func gammaContinuedFraction(a, x, lg float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// GammaQuantile returns x such that P(shape, x) = p for the standard gamma
// distribution with the given shape and unit rate. The root is located in
// log space (which stays well-conditioned even for the astronomically small
// quantiles that arise at shape << 1) by Newton steps with a bisection
// bracket as safeguard. Used to obtain the per-category boundaries of the
// discrete Gamma model of rate heterogeneity (Yang 1994).
func GammaQuantile(p, shape float64) float64 {
	lg, _ := math.Lgamma(shape)
	lg1, _ := math.Lgamma(shape + 1)
	return gammaQuantile(p, shape, lg, lg1)
}

// gammaQuantile is GammaQuantile given lg = lgamma(shape) and lg1 =
// lgamma(shape+1). P at the start guess is evaluated once: the first test of
// each bracket loop and the first Newton step all read it.
func gammaQuantile(p, shape, lg, lg1 float64) float64 {
	if math.IsNaN(p) || math.IsNaN(shape) || shape <= 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	// Small-x expansion P(a,x) ~ x^a / Gamma(a+1) gives an excellent guess in
	// log space whenever the quantile is far below the mode; otherwise use the
	// Wilson-Hilferty normal approximation.
	lx := (math.Log(p) + lg1) / shape
	if lx > math.Log(0.1*(shape+1)) {
		z := normalQuantile(p)
		wh := shape * math.Pow(1-1/(9*shape)+z/(3*math.Sqrt(shape)), 3)
		if wh > 0 && !math.IsNaN(wh) {
			lx = math.Log(wh)
		}
	}
	// Bracket in log space: llo with P <= p, lhi with P >= p. Both start at
	// lx, so lx stays inside the bracket.
	px := incompleteGammaP(shape, math.Exp(lx), lg)
	llo, lhi := lx, lx
	for i, f := 0, px; i < 200 && f > p; i++ {
		llo -= 2
		f = incompleteGammaP(shape, math.Exp(llo), lg)
	}
	for i, f := 0, px; i < 200 && f < p; i++ {
		lhi += 2
		f = incompleteGammaP(shape, math.Exp(lhi), lg)
	}
	for i := 0; i < 200; i++ {
		x := math.Exp(lx)
		if i > 0 {
			px = incompleteGammaP(shape, x, lg)
		}
		f := px - p
		if f > 0 {
			lhi = lx
		} else {
			llo = lx
		}
		// d/d(ln x) P(a, e^(ln x)) = pdf(x) * x = exp(a ln x - x - lgamma(a)).
		dfdlx := math.Exp(shape*lx - x - lg)
		var next float64
		if dfdlx > 0 && !math.IsInf(dfdlx, 0) {
			next = lx - f/dfdlx
		} else {
			next = 0.5 * (llo + lhi)
		}
		if next <= llo || next >= lhi || math.IsNaN(next) {
			next = 0.5 * (llo + lhi)
		}
		if math.Abs(next-lx) < 1e-14 {
			return math.Exp(next)
		}
		lx = next
	}
	return math.Exp(lx)
}

// normalQuantile is the inverse standard normal CDF (Peter Acklam's rational
// approximation, |relative error| < 1.15e-9), adequate as a Newton starting
// point for GammaQuantile.
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// DiscreteGammaRates fills rates with the k category rates of Yang's (1994)
// discrete Gamma model of among-site rate heterogeneity for shape parameter
// alpha, using the mean of each equal-probability quantile slice. The rates
// average exactly 1 so branch lengths keep their expected-substitutions
// interpretation. k must be >= 1.
//
// For X ~ Gamma(shape=alpha, rate=alpha) (mean 1), the mean of X restricted to
// quantile slice (c_j, c_{j+1}) times k is
//
//	r_j = k * [ P(alpha+1, alpha*c_{j+1}) - P(alpha+1, alpha*c_j) ]
//
// where P is the regularized lower incomplete gamma and the c_j are the
// (j/k)-quantiles of X.
func DiscreteGammaRates(alpha float64, rates []float64) {
	k := len(rates)
	if k == 0 {
		return
	}
	if k == 1 {
		rates[0] = 1
		return
	}
	// Quantile boundaries of Gamma(alpha, rate alpha): the (j/k)-quantile of X
	// equals quantile_gamma(shape=alpha, rate=1, j/k) / alpha. Every quantile
	// and slice mean is at shape alpha or alpha+1: two lgammas for all of them.
	lg, _ := math.Lgamma(alpha)
	lg1, _ := math.Lgamma(alpha + 1)
	prev := 0.0 // P(alpha+1, alpha*c_0) with c_0 = 0
	for j := 1; j <= k; j++ {
		var cur float64
		if j == k {
			cur = 1
		} else {
			q := gammaQuantile(float64(j)/float64(k), alpha, lg, lg1) // rate-1 quantile = alpha * c_j
			cur = incompleteGammaP(alpha+1, q, lg1)
		}
		rates[j-1] = float64(k) * (cur - prev)
		prev = cur
	}
	// Guard against tiny negative values from cancellation at extreme alpha,
	// then renormalize the mean to exactly 1.
	sum := 0.0
	for j := range rates {
		if rates[j] < 1e-12 {
			rates[j] = 1e-12
		}
		sum += rates[j]
	}
	scale := float64(k) / sum
	for j := range rates {
		rates[j] *= scale
	}
}
