package numeric

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestJacobiEigenIdentity(t *testing.T) {
	n := 4
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	vals, vecs, err := JacobiEigen(a, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Abs(v-1) > 1e-14 {
			t.Errorf("eigenvalue %d = %v, want 1", i, v)
		}
	}
	// Eigenvectors must be orthonormal.
	checkOrthonormal(t, vecs, n)
}

func TestJacobiEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := []float64{2, 1, 1, 2}
	vals, _, err := JacobiEigen(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Errorf("got eigenvalues %v, want [1 3]", vals)
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{3, 4, 8, 20} {
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a[i*n+j] = v
				a[j*n+i] = v
			}
		}
		vals, vecs, err := JacobiEigen(a, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkOrthonormal(t, vecs, n)
		// Reconstruct V diag(vals) V^T and compare.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += vecs[i*n+k] * vals[k] * vecs[j*n+k]
				}
				if math.Abs(s-a[i*n+j]) > 1e-9 {
					t.Fatalf("n=%d: reconstruction (%d,%d) = %v, want %v", n, i, j, s, a[i*n+j])
				}
			}
		}
		// Eigenvalues sorted ascending.
		for k := 1; k < n; k++ {
			if vals[k] < vals[k-1] {
				t.Fatalf("n=%d: eigenvalues not sorted: %v", n, vals)
			}
		}
	}
}

func TestJacobiEigenRejectsAsymmetric(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if _, _, err := JacobiEigen(a, 2); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
	if _, _, err := JacobiEigen([]float64{1, 2}, 2); err == nil {
		t.Fatal("expected error for bad length")
	}
}

func checkOrthonormal(t *testing.T, v []float64, n int) {
	t.Helper()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += v[i*n+a] * v[i*n+b]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Fatalf("eigenvector columns %d,%d: dot = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestMatVecMatMulTranspose(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	x := []float64{1, 1}
	y := MatVec(a, x, 2)
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MatVec = %v, want [3 7]", y)
	}
	c := MatMul(a, a, 2)
	want := []float64{7, 10, 15, 22}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("MatMul[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	tr := Transpose(a, 2)
	if tr[0] != 1 || tr[1] != 3 || tr[2] != 2 || tr[3] != 4 {
		t.Errorf("Transpose = %v", tr)
	}
}

func TestIncompleteGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^-x.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got := IncompleteGammaP(1, x)
		want := 1 - math.Exp(-x)
		if math.Abs(got-want) > 1e-13 {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(a, 0) = 0, P(a, inf) = 1.
	if IncompleteGammaP(2.5, 0) != 0 {
		t.Error("P(a,0) != 0")
	}
	if IncompleteGammaP(2.5, math.Inf(1)) != 1 {
		t.Error("P(a,inf) != 1")
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.01, 0.25, 1, 4} {
		got := IncompleteGammaP(0.5, x)
		want := math.Erf(math.Sqrt(x))
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(0.5,%v) = %v, want erf=%v", x, got, want)
		}
	}
	// Q = 1 - P across the series/fraction switchover.
	for _, a := range []float64{0.3, 1.7, 8, 80} {
		for _, x := range []float64{0.2, a, a + 2, 3 * a} {
			p, q := IncompleteGammaP(a, x), IncompleteGammaQ(a, x)
			if math.Abs(p+q-1) > 1e-12 {
				t.Errorf("P+Q != 1 at a=%v x=%v: %v", a, x, p+q)
			}
		}
	}
	if !math.IsNaN(IncompleteGammaP(-1, 1)) || !math.IsNaN(IncompleteGammaP(1, -1)) {
		t.Error("expected NaN for invalid arguments")
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	for _, shape := range []float64{0.05, 0.3, 0.5, 1, 2.7, 10, 100} {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := GammaQuantile(p, shape)
			back := IncompleteGammaP(shape, x)
			if math.Abs(back-p) > 1e-10 {
				t.Errorf("shape=%v p=%v: quantile=%v, P(quantile)=%v", shape, p, x, back)
			}
		}
	}
	if GammaQuantile(0, 1) != 0 {
		t.Error("quantile at p=0 should be 0")
	}
	if !math.IsInf(GammaQuantile(1, 1), 1) {
		t.Error("quantile at p=1 should be +inf")
	}
	// Exponential special case: quantile(p, 1) = -ln(1-p).
	for _, p := range []float64{0.1, 0.5, 0.9} {
		got := GammaQuantile(p, 1)
		want := -math.Log(1 - p)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("exponential quantile p=%v: got %v want %v", p, got, want)
		}
	}
}

func TestDiscreteGammaRatesMeanOne(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.2, 0.5, 1, 2, 5, 50} {
		for _, k := range []int{1, 2, 4, 8} {
			rates := make([]float64, k)
			DiscreteGammaRates(alpha, rates)
			sum := 0.0
			for i, r := range rates {
				if r <= 0 {
					t.Fatalf("alpha=%v k=%d: non-positive rate %v", alpha, k, r)
				}
				if i > 0 && rates[i] < rates[i-1] {
					t.Fatalf("alpha=%v k=%d: rates not monotone: %v", alpha, k, rates)
				}
				sum += r
			}
			if math.Abs(sum/float64(k)-1) > 1e-9 {
				t.Errorf("alpha=%v k=%d: mean = %v, want 1", alpha, k, sum/float64(k))
			}
		}
	}
}

func TestDiscreteGammaRatesLimits(t *testing.T) {
	// Large alpha: rates approach 1 (homogeneous).
	rates := make([]float64, 4)
	DiscreteGammaRates(500, rates)
	for _, r := range rates {
		if math.Abs(r-1) > 0.1 {
			t.Errorf("alpha=500: rate %v should be near 1", r)
		}
	}
	// Small alpha: strong heterogeneity, lowest category near 0.
	DiscreteGammaRates(0.1, rates)
	if rates[0] > 0.01 {
		t.Errorf("alpha=0.1: lowest rate %v should be near 0", rates[0])
	}
	if rates[3] < 2 {
		t.Errorf("alpha=0.1: highest rate %v should be large", rates[3])
	}
	// Known reference values for alpha = 0.5, k = 4 (Yang 1994 Table; widely
	// reproduced): approximately {0.0334, 0.2519, 0.8203, 2.8944}.
	DiscreteGammaRates(0.5, rates)
	want := []float64{0.0334, 0.2519, 0.8203, 2.8944}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 5e-4 {
			t.Errorf("alpha=0.5 rate[%d] = %v, want ~%v", i, rates[i], want[i])
		}
	}
}

// gammaGridHash is an FNV-1a hash of the bits of GammaQuantile over a
// (p, shape) grid and of DiscreteGammaRates over an (alpha, k) grid spanning
// the optimizer's alpha bounds, in a fixed order.
func gammaGridHash() uint64 {
	h := fnv.New64a()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	ps := []float64{0, 1e-300, 1e-12, 1e-6, 0.01, 0.1, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.75, 0.9, 0.99, 1 - 1e-9, 1}
	for _, shape := range []float64{0.005, 0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 1, 1.5, 2, 5, 10, 30, 100, 101, 500} {
		for _, p := range ps {
			put(GammaQuantile(p, shape))
		}
	}
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 300; i++ {
		alpha := 0.02 * math.Pow(5000, float64(i)/299) // 0.02 … 100, log-spaced
		if i%3 == 1 {
			alpha = 0.02 * math.Pow(5000, rng.Float64())
		}
		for _, k := range []int{1, 2, 3, 4, 5, 8, 16} {
			rates := make([]float64, k)
			DiscreteGammaRates(alpha, rates)
			for _, r := range rates {
				put(r)
			}
		}
	}
	return h.Sum64()
}

// TestGammaGridBitsPinned holds GammaQuantile and DiscreteGammaRates to the
// bits they had before the start-guess evaluation and Lgamma(shape) were
// computed once instead of up to three times: the same values in the same
// order. math.Exp on amd64 rounds differently with and without FMA
// (GODEBUG=cpu.fma=off selects the second), so there is one constant per
// host class; other architectures are not pinned.
func TestGammaGridBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the recorded bits are amd64's")
	}
	const fmaHost, sseHost = 0x2c036d71babb3d7c, 0x304b1e0b7a66020b
	if got := gammaGridHash(); got != fmaHost && got != sseHost {
		t.Fatalf("quantile/rates grid hashes to %#x, want %#x (FMA host) or %#x (SSE host)", got, uint64(fmaHost), uint64(sseHost))
	}
}

// brentResult reports the outcome of brentMinimize.
type brentResult struct {
	X          float64 // abscissa of the minimum
	Iterations int     // evaluations consumed after the one at the guess
	Converged  bool    // whether the tolerance was met within the budget
}

// brentMinimize drives a BrentState the way the model optimizer does, on an
// objective it can call: seed with f(guess), then Next / Observe until done or
// maxIter evaluations.
func brentMinimize(f func(float64) float64, lo, guess, hi, tol float64, maxIter int) brentResult {
	st := NewBrentState(lo, guess, hi, tol)
	st.Seed(f(guess))
	for i := 0; i < maxIter; i++ {
		x, done := st.Next()
		if done {
			return brentResult{X: st.X, Iterations: i, Converged: true}
		}
		st.Observe(x, f(x))
	}
	return brentResult{X: st.X, Iterations: maxIter}
}

func TestBrentMinimizeQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.25) * (x - 3.25) }
	res := brentMinimize(f, 0, 1, 10, 1e-10, 100)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.X-3.25) > 1e-6 {
		t.Errorf("minimum at %v, want 3.25", res.X)
	}
}

func TestBrentMinimizeHard(t *testing.T) {
	// Asymmetric function with minimum at x = 2: f = x + 4/x, f' = 1 - 4/x^2.
	f := func(x float64) float64 { return x + 4/x }
	res := brentMinimize(f, 0.001, 0.01, 100, 1e-12, 200)
	if !res.Converged || math.Abs(res.X-2) > 1e-6 {
		t.Errorf("got x=%v converged=%v, want 2", res.X, res.Converged)
	}
	// Minimum at a boundary.
	g := func(x float64) float64 { return x }
	res = brentMinimize(g, 1, 5, 10, 1e-9, 200)
	if math.Abs(res.X-1) > 1e-6 {
		t.Errorf("boundary minimum: got %v, want 1", res.X)
	}
}

func TestBrentStateMatchesDriver(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) + 0.1*x }
	st := NewBrentState(0, 2, 6, 1e-10)
	st.Seed(f(2))
	iter := 0
	for {
		x, done := st.Next()
		if done {
			break
		}
		st.Observe(x, f(x))
		iter++
		if iter > 500 {
			t.Fatal("BrentState failed to converge")
		}
	}
	// d/dx (cos x + 0.1 x) = -sin x + 0.1 = 0 -> x = pi - asin(0.1) in [2,6].
	want := math.Pi - math.Asin(0.1)
	if math.Abs(st.X-want) > 1e-6 {
		t.Errorf("minimum at %v, want %v", st.X, want)
	}
}

// TestBrentBracketProperties drives BrentState over unimodal objectives ×
// legal intervals × guesses — the guess on either bound, the minimum on
// either bound or outside the interval, a kink, a flat objective, and
// stretches that return NaN or +Inf — and holds every solve to the contract
// the model optimizer relies on: proposals stay inside [lo, hi], no abscissa
// is proposed twice running (nor the best point itself), the solve ends inside
// the optimizer's iteration cap, lands within Brent's 4·tol₁ of the minimiser,
// and never returns a point worse than the guess.
func TestBrentBracketProperties(t *testing.T) {
	const (
		tol     = 1e-4 // the model optimizer's brentTol
		maxIter = 100  // and its maxBrentIter
	)
	type objective struct {
		name string
		f    func(x, m float64) float64
		flat bool // every point is a minimiser
	}
	objectives := []objective{
		{name: "quadratic", f: func(x, m float64) float64 { return (x - m) * (x - m) }},
		{name: "kink", f: func(x, m float64) float64 { return math.Abs(x-m) + 1 }},
		{name: "skewed", f: func(x, m float64) float64 { d := x - m; return d*d*(1+0.5*math.Tanh(d)) - 7 }},
		{name: "quartic", f: func(x, m float64) float64 { d := x - m; return d * d * d * d }},
		{name: "flat", f: func(x, m float64) float64 { return 3 }, flat: true},
		{name: "nan-above", f: func(x, m float64) float64 {
			if x > m+0.3*math.Abs(m)+0.5 {
				return math.NaN()
			}
			return (x - m) * (x - m)
		}},
		{name: "inf-below", f: func(x, m float64) float64 {
			if x < m-0.3*math.Abs(m)-0.5 {
				return math.Inf(1)
			}
			return (x - m) * (x - m)
		}},
	}
	intervals := [][2]float64{{0.02, 100}, {1e-4, 1e3}, {-5, 5}, {0, 10}, {2, 2.0001}}
	rng := rand.New(rand.NewSource(7))
	solves, evals := 0, 0
	for _, iv := range intervals {
		lo, hi := iv[0], iv[1]
		span := hi - lo
		// Where the unconstrained minimum sits: inside, on a bound, beyond one.
		minima := []float64{lo, hi, lo - 0.25*span, hi + 0.25*span, lo + 0.01*span, lo + 0.5*span, lo + rng.Float64()*span}
		guesses := []float64{lo, hi, lo + 1e-9*span, hi - 1e-9*span, lo + 0.5*span, lo + rng.Float64()*span, lo + rng.Float64()*span}
		for _, obj := range objectives {
			for _, m := range minima {
				for _, guess := range guesses {
					f := func(x float64) float64 { return obj.f(x, m) }
					f0 := f(guess)
					if math.IsNaN(f0) || math.IsInf(f0, 0) {
						continue // the optimizer never starts from an undefined score
					}
					st := NewBrentState(lo, guess, hi, tol)
					st.Seed(f0)
					last, done, n := guess, false, 0
					for ; n < maxIter; n++ {
						var x float64
						if x, done = st.Next(); done {
							break
						}
						if x < lo || x > hi {
							t.Fatalf("%s m=%v [%v,%v] guess=%v: proposal %v outside the interval", obj.name, m, lo, hi, guess, x)
						}
						if x == last || x == st.X {
							t.Fatalf("%s m=%v [%v,%v] guess=%v: proposal %v repeats (last %v, best %v)", obj.name, m, lo, hi, guess, x, last, st.X)
						}
						last = x
						st.Observe(x, f(x))
					}
					solves++
					evals += n
					if !done {
						t.Fatalf("%s m=%v [%v,%v] guess=%v: not done after %d evaluations (x=%v, bracket [%v,%v])", obj.name, m, lo, hi, guess, maxIter, st.X, st.A, st.B)
					}
					if !(st.FX <= f0) || st.FX != f(st.X) {
						t.Fatalf("%s m=%v [%v,%v] guess=%v: returned f(%v)=%v (recorded %v), guess scored %v", obj.name, m, lo, hi, guess, st.X, f(st.X), st.FX, f0)
					}
					want := math.Min(math.Max(m, lo), hi)
					// 1e-6: below sqrt(machine epsilon) x the objective's scale a
					// smooth minimum is flat in floating point.
					if slack := 4*(tol*math.Abs(st.X)+brentZeps) + 1e-6; !obj.flat && math.Abs(st.X-want) > slack {
						t.Fatalf("%s m=%v [%v,%v] guess=%v: minimum at %v, want %v ± %v (%d evaluations)", obj.name, m, lo, hi, guess, st.X, want, slack, n)
					}
				}
			}
		}
	}
	t.Logf("%d solves, %.1f evaluations a solve", solves, float64(evals)/float64(solves))
}

// TestBrentConfirmsAConvergedGuess is the case the bracket exists for: a
// guess already within the tolerance of the minimum is confirmed in five
// evaluations, where the start on the whole legal interval took twelve.
func TestBrentConfirmsAConvergedGuess(t *testing.T) {
	f := func(x float64) float64 { return x - 0.7*math.Log(x) } // minimum at 0.7, like -lnL in alpha
	res := brentMinimize(f, 0.02, 0.70001, 100, 1e-4, 100)
	if !res.Converged || math.Abs(res.X-0.7) > 4e-4*0.7 {
		t.Fatalf("got x=%v converged=%v, want 0.7", res.X, res.Converged)
	}
	if res.Iterations > 6 {
		t.Errorf("%d evaluations to confirm a converged guess, want <= 6", res.Iterations)
	}
}

func TestBrentPanicsOnMisuse(t *testing.T) {
	st := NewBrentState(0, 1, 2, 1e-8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Next before Seed should panic")
			}
		}()
		st.Next()
	}()
	st.Seed(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Observe without pending Next should panic")
			}
		}()
		st.Observe(1, 1)
	}()
}

func TestNewtonStateConcave(t *testing.T) {
	// Maximize -(x-1.5)^2: d1 = -2(x-1.5), d2 = -2. One Newton step suffices.
	st := NewNewtonState(0.1, 1e-8, 100, 1e-10)
	for i := 0; i < 50 && !st.Converged; i++ {
		x := st.Point()
		st.Observe(-2*(x-1.5), -2)
	}
	if !st.Converged || math.Abs(st.X-1.5) > 1e-8 {
		t.Errorf("x=%v converged=%v, want 1.5", st.X, st.Converged)
	}
}

func TestNewtonStateBoundary(t *testing.T) {
	// Monotonically increasing objective: should pin at Max and converge.
	st := NewNewtonState(1, 1e-8, 8, 1e-10)
	for i := 0; i < 100 && !st.Converged; i++ {
		st.Observe(1, -0.0) // positive gradient, flat curvature -> uphill moves
	}
	if !st.Converged || st.X != 8 {
		t.Errorf("x=%v converged=%v, want pinned at 8", st.X, st.Converged)
	}
	// Monotonically decreasing: pins at Min.
	st = NewNewtonState(1, 1e-6, 8, 1e-10)
	for i := 0; i < 100 && !st.Converged; i++ {
		st.Observe(-1, 0)
	}
	if !st.Converged || st.X != 1e-6 {
		t.Errorf("x=%v converged=%v, want pinned at 1e-6", st.X, st.Converged)
	}
}

func TestNewtonStateNaNRecovery(t *testing.T) {
	st := NewNewtonState(4, 1e-8, 100, 1e-10)
	st.Observe(math.NaN(), math.NaN())
	if st.X >= 4 {
		t.Errorf("NaN derivatives should shrink x, got %v", st.X)
	}
	if st.Converged {
		t.Error("should not converge on NaN")
	}
}

// Property: for random concave quadratics the Newton state converges to the
// clamped optimum.
func TestNewtonStateQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opt := 0.01 + 10*rng.Float64()
		curv := -(0.1 + 5*rng.Float64())
		st := NewNewtonState(0.5, 1e-8, 50, 1e-12)
		for i := 0; i < 200 && !st.Converged; i++ {
			x := st.Point()
			st.Observe(curv*(x-opt), curv)
		}
		return st.Converged && math.Abs(st.X-opt) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestNewtonStateGainStop: on a saturating objective, L∞ − e^(−x), a state
// with GainTol stops once the step it took was predicted to gain less, and
// Resume takes it through the points an uninterrupted state visits, to the
// same bits.
func TestNewtonStateGainStop(t *testing.T) {
	d := func(x float64) (float64, float64) { return math.Exp(-x), -math.Exp(-x) }
	run := func(st *NewtonState) []float64 {
		var xs []float64
		for i := 0; i < 100 && !st.Observe(d(st.Point())); i++ {
			xs = append(xs, st.X)
		}
		return append(xs, st.X)
	}
	full := NewNewtonState(0.5, 1e-8, 20, 1e-10)
	want := run(&full)
	ranked := NewNewtonState(0.5, 1e-8, 20, 1e-10)
	ranked.GainTol = 1e-3
	got := run(&ranked)
	if !ranked.Stopped || ranked.Converged || len(got) >= len(want) {
		t.Fatalf("stopped %v converged %v after %d points, uninterrupted %d", ranked.Stopped, ranked.Converged, len(got), len(want))
	}
	// The stop came after the first step predicted to gain less than GainTol.
	if d1, d2 := d(got[len(got)-2]); d1*d1/(2*-d2) >= 1e-3 {
		t.Errorf("the last step was predicted to gain %v", d1*d1/(2*-d2))
	}
	ranked.Resume()
	got = append(got, run(&ranked)...)
	if !ranked.Converged || len(got) != len(want) {
		t.Fatalf("resumed: converged %v after %d points, uninterrupted %d", ranked.Converged, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("point %d: %v, uninterrupted %v", i, got[i], want[i])
		}
	}
}

// Property: gamma quantile is monotone in p.
func TestGammaQuantileMonotoneQuick(t *testing.T) {
	f := func(a, b uint8, shapeBits uint8) bool {
		p1 := (float64(a) + 1) / 258
		p2 := (float64(b) + 1) / 258
		shape := 0.05 + float64(shapeBits)/16
		q1 := GammaQuantile(p1, shape)
		q2 := GammaQuantile(p2, shape)
		if p1 == p2 {
			return q1 == q2
		}
		if p1 > p2 {
			p1, p2 = p2, p1
			q1, q2 = q2, q1
		}
		return q1 <= q2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
