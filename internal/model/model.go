// Package model implements time-reversible substitution models for the
// phylogenetic likelihood kernel: the general time-reversible (GTR) model for
// DNA, 20-state models for protein data, and the discrete Gamma model of
// among-site rate heterogeneity (Yang 1994). Transition probability matrices
// P(t) = V exp(Lambda t) V^-1 are obtained from an eigendecomposition of the
// symmetrized rate matrix.
package model

import (
	"errors"
	"fmt"
	"math"

	"phylo/internal/alignment"
	"phylo/internal/cpufeat"
	"phylo/internal/numeric"
)

// Bounds used by the optimizers; they match RAxML's defaults closely.
const (
	MinAlpha      = 0.02
	MaxAlpha      = 100.0
	MinRate       = 1e-4
	MaxRate       = 1e3
	DefaultAlpha  = 1.0
	DefaultBranch = 0.1
)

// Model is the substitution model of one partition: state frequencies,
// symmetric exchangeability rates, the Gamma shape parameter with its
// discretized per-category rates, and the cached eigendecomposition of the
// normalized rate matrix Q.
type Model struct {
	Type    alignment.DataType
	States  int
	Freqs   []float64 // stationary frequencies pi, length States, sum 1
	ExRates []float64 // upper-triangular exchangeabilities, length States*(States-1)/2; the last entry is fixed at 1 (GTR convention)
	Alpha   float64   // Gamma shape parameter
	NumCats int       // number of discrete Gamma categories (1 = no heterogeneity)

	CatRates []float64 // per-category relative rates, mean 1

	// Eigendecomposition of Q (valid after UpdateEigen):
	EigenVals  []float64 // length States; one value is ~0
	EigenVecs  []float64 // V, row-major States x States
	EigenVecsT []float64 // V transposed (row k is column k of V): what the 20-state PMatrices kernel scales by exp(lambda_k t)
	InvVecs    []float64 // V^-1, row-major States x States
	InvVecsT   []float64 // V^-1 transposed (row j is column j of V^-1): what ApplyCols reads V^-1 as
	dirty      bool

	epoch uint64 // bumped by SetAlpha and a successful UpdateEigen, carried by Clone (see Epoch)

	// eig is UpdateEigen's scratch, allocated on first use and private to
	// this model (Clone leaves it nil), so the optimizers' repeated
	// re-decompositions allocate nothing.
	eig *eigenWork
}

// eigenWork is the scratch of one UpdateEigen: the rate matrix, symmetrized
// in place (b), Jacobi's eigenvalues and eigenvectors, the frequency roots,
// and the solver's own workspace.
type eigenWork struct {
	b, r         []float64 // s x s
	vals, sqrtPi []float64 // s
	jacobi       []float64 // numeric.JacobiWork(s)
}

func newEigenWork(s int) *eigenWork {
	ss := s * s
	buf := make([]float64, 2*ss+2*s+numeric.JacobiWork(s))
	return &eigenWork{
		b: buf[:ss], r: buf[ss : 2*ss],
		vals: buf[2*ss : 2*ss+s], sqrtPi: buf[2*ss+s : 2*ss+2*s],
		jacobi: buf[2*ss+2*s:],
	}
}

var errNoCats = errors.New("model: need at least one rate category")

// NumExRates returns the exchangeability count for s states.
func NumExRates(s int) int { return s * (s - 1) / 2 }

// RateIndex maps an unordered state pair (i < j) onto its index in ExRates.
func RateIndex(s, i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row-major upper triangle: pairs (0,1),(0,2)...(0,s-1),(1,2)...
	return i*s - i*(i+1)/2 + (j - i - 1)
}

// New creates a model with the given frequencies and exchangeabilities and
// computes its eigendecomposition. Pass nil for uniform frequencies and/or
// all-equal exchangeabilities.
func New(t alignment.DataType, freqs, exRates []float64, alpha float64, numCats int) (*Model, error) {
	return newModel(t, freqs, exRates, alpha, numCats, nil)
}

// newModel is New with the category rates of (alpha, numCats) given, when
// catRates is not nil: numeric.DiscreteGammaRates' bits, computed once by the
// caller for several models.
func newModel(t alignment.DataType, freqs, exRates []float64, alpha float64, numCats int, catRates []float64) (*Model, error) {
	s := t.States()
	if s == 0 {
		return nil, fmt.Errorf("model: bad data type %v", t)
	}
	if numCats < 1 {
		return nil, errNoCats
	}
	m := &Model{
		Type:     t,
		States:   s,
		Freqs:    make([]float64, s),
		ExRates:  make([]float64, NumExRates(s)),
		Alpha:    alpha,
		NumCats:  numCats,
		CatRates: make([]float64, numCats),
	}
	if freqs == nil {
		for i := range m.Freqs {
			m.Freqs[i] = 1 / float64(s)
		}
	} else {
		if len(freqs) != s {
			return nil, fmt.Errorf("model: %d frequencies for %d states", len(freqs), s)
		}
		copy(m.Freqs, freqs)
		if err := normalizeFreqs(m.Freqs); err != nil {
			return nil, err
		}
	}
	if exRates == nil {
		for i := range m.ExRates {
			m.ExRates[i] = 1
		}
	} else {
		if len(exRates) != len(m.ExRates) {
			return nil, fmt.Errorf("model: %d exchangeabilities for %d states", len(exRates), s)
		}
		copy(m.ExRates, exRates)
		for i, r := range m.ExRates {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return nil, fmt.Errorf("model: exchangeability %d = %v invalid", i, r)
			}
		}
	}
	if err := m.setAlpha(alpha, catRates); err != nil {
		return nil, err
	}
	if err := m.UpdateEigen(); err != nil {
		return nil, err
	}
	return m, nil
}

func normalizeFreqs(f []float64) error {
	sum := 0.0
	for _, v := range f {
		if v <= 0 || math.IsNaN(v) {
			return fmt.Errorf("model: non-positive frequency %v", v)
		}
		sum += v
	}
	for i := range f {
		f[i] /= sum
	}
	return nil
}

// SetAlpha updates the Gamma shape parameter and recomputes the category
// rates. It does not touch the eigendecomposition (alpha only scales branch
// lengths per category). The epoch moves on every accepted call.
func (m *Model) SetAlpha(alpha float64) error { return m.setAlpha(alpha, nil) }

// setAlpha is SetAlpha with the category rates of alpha given, when rates is
// not nil (numeric.DiscreteGammaRates' bits for len(m.CatRates) categories).
func (m *Model) setAlpha(alpha float64, rates []float64) error {
	if math.IsNaN(alpha) || alpha < MinAlpha || alpha > MaxAlpha {
		return fmt.Errorf("model: alpha %v outside [%v, %v]", alpha, MinAlpha, MaxAlpha)
	}
	m.Alpha = alpha
	if rates != nil {
		copy(m.CatRates, rates)
	} else {
		numeric.DiscreteGammaRates(alpha, m.CatRates)
	}
	m.epoch++
	return nil
}

// SetExRate updates one exchangeability and marks the eigendecomposition
// stale; call UpdateEigen before computing likelihoods.
func (m *Model) SetExRate(idx int, v float64) error {
	if idx < 0 || idx >= len(m.ExRates) {
		return fmt.Errorf("model: rate index %d out of range", idx)
	}
	if math.IsNaN(v) || v < MinRate || v > MaxRate {
		return fmt.Errorf("model: rate %v outside [%v, %v]", v, MinRate, MaxRate)
	}
	m.ExRates[idx] = v
	m.dirty = true
	return nil
}

// SetFreqs replaces the stationary frequencies (normalizing them) and marks
// the eigendecomposition stale.
func (m *Model) SetFreqs(f []float64) error {
	if len(f) != m.States {
		return fmt.Errorf("model: %d frequencies for %d states", len(f), m.States)
	}
	tmp := append([]float64(nil), f...)
	if err := normalizeFreqs(tmp); err != nil {
		return err
	}
	copy(m.Freqs, tmp)
	m.dirty = true
	return nil
}

// Dirty reports whether UpdateEigen must be called.
func (m *Model) Dirty() bool { return m.dirty }

// Epoch identifies the state PMatrices reads, the category rates and the
// eigendecomposition: while a model (or a Clone and its original, neither
// changed since) reports the same epoch, PMatrices(t) gives the same bits for
// the same t. Setters that only mark the decomposition stale do not move it.
func (m *Model) Epoch() uint64 { return m.epoch }

// BuildQ assembles the normalized instantaneous rate matrix Q (row-major):
// Q_ij = r_ij * pi_j for i != j, rows summing to zero, scaled so the expected
// substitution rate at stationarity, -sum_i pi_i Q_ii, equals 1. This keeps
// branch lengths in expected-substitutions-per-site units.
func (m *Model) BuildQ() []float64 {
	q := make([]float64, m.States*m.States)
	m.buildQ(q)
	return q
}

// buildQ is BuildQ into caller-owned storage (every entry is overwritten).
func (m *Model) buildQ(q []float64) {
	s := m.States
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			if i == j {
				continue
			}
			q[i*s+j] = m.ExRates[RateIndex(s, i, j)] * m.Freqs[j]
		}
	}
	scale := 0.0
	for i := 0; i < s; i++ {
		row := 0.0
		for j := 0; j < s; j++ {
			if j != i {
				row += q[i*s+j]
			}
		}
		q[i*s+i] = -row
		scale += m.Freqs[i] * row
	}
	if scale <= 0 {
		return
	}
	inv := 1 / scale
	for k := range q {
		q[k] *= inv
	}
}

// UpdateEigen recomputes the eigendecomposition of Q via symmetrization:
// with D = diag(pi), B = D^(1/2) Q D^(-1/2) is symmetric for time-reversible
// Q; B = R Lambda R^T yields V = D^(-1/2) R and V^-1 = R^T D^(1/2). The
// decomposition is written into the model's existing EigenVals/EigenVecs/
// EigenVecsT/InvVecs/InvVecsT storage, and only once the solver has succeeded.
func (m *Model) UpdateEigen() error {
	s := m.States
	if m.eig == nil {
		m.eig = newEigenWork(s)
	}
	b, r, vals, sqrtPi := m.eig.b, m.eig.r, m.eig.vals, m.eig.sqrtPi
	m.buildQ(b)
	for i := 0; i < s; i++ {
		sqrtPi[i] = math.Sqrt(m.Freqs[i])
	}
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			b[i*s+j] = sqrtPi[i] * b[i*s+j] / sqrtPi[j]
		}
	}
	// Force exact symmetry against rounding before Jacobi.
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			v := 0.5 * (b[i*s+j] + b[j*s+i])
			b[i*s+j] = v
			b[j*s+i] = v
		}
	}
	if err := numeric.JacobiEigenInto(vals, r, m.eig.jacobi, b, s); err != nil {
		return fmt.Errorf("model: eigendecomposition failed: %w", err)
	}
	if m.EigenVals == nil {
		m.EigenVals = make([]float64, s)
		m.EigenVecs = make([]float64, s*s)
		m.EigenVecsT = make([]float64, s*s)
		m.InvVecs = make([]float64, s*s)
		m.InvVecsT = make([]float64, s*s)
	}
	copy(m.EigenVals, vals)
	for i := 0; i < s; i++ {
		for k := 0; k < s; k++ {
			m.EigenVecs[i*s+k] = r[i*s+k] / sqrtPi[i]
			m.EigenVecsT[k*s+i] = m.EigenVecs[i*s+k]
			m.InvVecs[k*s+i] = r[i*s+k] * sqrtPi[i]
			m.InvVecsT[i*s+k] = m.InvVecs[k*s+i]
		}
	}
	m.dirty = false
	m.epoch++
	return nil
}

// maxStates is the widest alphabet (AA); it sizes pmatrixCols' stack scratch.
const maxStates = 20

// PMatrix fills dst (len States*States, row-major) with the transition
// probability matrix P(t) = V exp(Lambda*t) V^-1 for branch length t
// (already scaled by the rate category, if any; a negative t is read as 0).
// Entry (i, j) is the sum over k ascending, from zero, of
// (V[i][k]·exp(lambda_k t))·V^-1[k][j], clamped at zero; the row scaling is
// computed once per (i, k) instead of once per term. The 4-state case is
// those sums written out (pmatrix4); where PMatrix4Kernel is on, PMatrices
// computes them with the AVX2 kernel instead, and pmatrix4 is that kernel's
// reference and its fallback for arguments outside its guard. A wider block
// is computed column by column (pmatrixCols, the reference of PMatrices'
// 20-state kernel) and transposed into dst.
//
//plk:hotpath
func (m *Model) PMatrix(t float64, dst []float64) {
	s := m.States
	if s != 4 {
		var cols [maxStates * maxStates]float64
		m.pmatrixCols(t, cols[:s*s])
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				dst[i*s+j] = cols[j*s+i]
			}
		}
		return
	}
	if t < 0 {
		t = 0
	}
	m.pmatrix4(t, dst)
}

// pmatrixCols fills dst (len States*States) with P(t) column-major, entry
// (i, j) at j·States + i. Column j is one ApplyCols of the transposed
// V·diag(exp(Lambda t)) to row j of InvVecsT, then the clamp: entry i is
// PMatrix's sum term for term, (V[i][k]·e_k)·V^-1[k][j] added k-ascending
// from +0, with e = Exps(lambda·t). It is the reference and the fallback of
// the 20-state PMatrices kernel (pmatrix20_amd64.s). Through PMatrices it can
// run once per category in every kernel span set-up, concurrently on every
// worker, so its scratch lives on the stack.
//
//plk:hotpath
func (m *Model) pmatrixCols(t float64, dst []float64) {
	s := m.States
	if t < 0 {
		t = 0
	}
	var buf [maxStates + maxStates*maxStates]float64
	expl, veT := buf[:s], buf[maxStates:maxStates+s*s]
	for k := range expl {
		expl[k] = m.EigenVals[k] * t
	}
	Exps(expl)
	for i := 0; i < s; i++ {
		for k, v := range m.EigenVecs[i*s : (i+1)*s] {
			veT[k*s+i] = v * expl[k]
		}
	}
	for j := 0; j < s; j++ {
		col := dst[j*s : (j+1)*s]
		ApplyCols(col, veT, m.InvVecsT[j*s:(j+1)*s])
		for i, p := range col {
			col[i] = clampNeg(p)
		}
	}
}

// pmatrix4 is PMatrix for four states with the loops written out over fixed-
// size arrays: no slice headers, no bounds checks past the four conversions.
// Every entry is still (V[i][0]·e_0)·V^-1[0][j] + ... + (V[i][3]·e_3)·V^-1[3][j]
// added left to right from +0 (the leading 0 is a term: it keeps a sum of -0
// products at +0), so the bits are PMatrix's.
//
//plk:hotpath
func (m *Model) pmatrix4(t float64, dst []float64) {
	l, v, u, d := (*[4]float64)(m.EigenVals), (*[16]float64)(m.EigenVecs), (*[16]float64)(m.InvVecs), (*[16]float64)(dst)
	e0, e1, e2, e3 := math.Exp(l[0]*t), math.Exp(l[1]*t), math.Exp(l[2]*t), math.Exp(l[3]*t)
	for i := 0; i < 16; i += 4 {
		a0, a1, a2, a3 := v[i]*e0, v[i+1]*e1, v[i+2]*e2, v[i+3]*e3
		s0 := 0 + a0*u[0] + a1*u[4] + a2*u[8] + a3*u[12]
		s1 := 0 + a0*u[1] + a1*u[5] + a2*u[9] + a3*u[13]
		s2 := 0 + a0*u[2] + a1*u[6] + a2*u[10] + a3*u[14]
		s3 := 0 + a0*u[3] + a1*u[7] + a2*u[11] + a3*u[15]
		d[i], d[i+1], d[i+2], d[i+3] = clampNeg(s0), clampNeg(s1), clampNeg(s2), clampNeg(s3)
	}
}

// clampNeg zeroes the tiny negative values rounding can leave in a P-matrix
// entry; they would otherwise inject negative likelihood contributions.
func clampNeg(p float64) float64 {
	if p < 0 {
		return 0
	}
	return p
}

// PMatrices fills dst (len NumCats*States*States) with one P matrix per
// Gamma category for branch length t, P_c = P(catRate_c * t) at c·States²,
// in the one layout every kernel reads a P block in: a 4-state block is
// row-major, as PMatrix writes it (the fused newview planes, their AVX
// kernels and the 4-state tip tables read its rows), and a wider block is
// column-major, entry (i, j) at j·States + i, so that ApplyCols applies it
// with four consecutive rows of P in one register. On amd64 with AVX2 the
// 4-state blocks of all categories are one call of the kernel in
// pmatrix4_amd64.s, which gives PMatrix's bits (PMatrix4Kernel); it declines
// arguments outside [-700, 700], and then PMatrix computes the blocks. On
// amd64 with AVX the 20-state blocks of all categories are one Exps and one
// call of the kernel in pmatrix20_amd64.s, pmatrixCols' bits
// (PMatrix20Kernel).
func (m *Model) PMatrices(t float64, dst []float64) {
	ss := m.States * m.States
	if m.States != 4 {
		if m.pmatrices20Vec(t, dst) {
			return
		}
		for c := 0; c < m.NumCats; c++ {
			m.pmatrixCols(m.CatRates[c]*t, dst[c*ss:(c+1)*ss])
		}
		return
	}
	if m.pmatrices4Vec(t, dst) {
		return
	}
	for c := 0; c < m.NumCats; c++ {
		m.PMatrix(m.CatRates[c]*t, dst[c*ss:(c+1)*ss])
	}
}

// PMatrix4Kernel is the 4-state PMatrices kernel, pmatrix4_amd64.s. Its
// exponential is Exps' (exp_amd64.h), and it runs where that one does.
var PMatrix4Kernel = cpufeat.NewKernel("4-state PMatrices (AVX2+FMA)", ExpsKernel.Host())

// PMatrix20Kernel is the 20-state PMatrices kernel, pmatrix20_amd64.s.
var PMatrix20Kernel = cpufeat.NewKernel("20-state PMatrices (AVX)", cpufeat.AVX)

// Clone returns a deep copy (used by tree-search checkpointing and by
// per-partition model replication).
func (m *Model) Clone() *Model { return m.cloneCats(len(m.CatRates)) }

// cloneCats is Clone with numCats category rates, the leading ones m's; the
// caller sets NumCats.
func (m *Model) cloneCats(numCats int) *Model {
	c := *m
	c.eig = nil // UpdateEigen's scratch stays private to m
	// One array holds the eight slices, the s x s matrices first so the
	// P-matrix kernels load them from a cache-line start; three-index slices
	// keep an append on one from reaching the next.
	fields := [...]*[]float64{&c.EigenVecs, &c.EigenVecsT, &c.InvVecs, &c.InvVecsT, &c.EigenVals, &c.Freqs, &c.ExRates}
	n := numCats
	for _, f := range fields {
		n += len(*f)
	}
	buf := make([]float64, n)
	for _, f := range fields {
		if k := copy(buf, *f); k > 0 {
			*f, buf = buf[:k:k], buf[k:]
		}
	}
	copy(buf, m.CatRates)
	c.CatRates = buf
	return &c
}

// EmpiricalFreqs estimates stationary frequencies from the observed state
// counts of a compressed partition (gaps and ambiguity codes distribute
// fractionally over their compatible states, as in RAxML's empirical base
// frequency estimator).
func EmpiricalFreqs(p *alignment.CompressedPartition) []float64 {
	s := p.Type.States()
	counts := make([]float64, s)
	// Each code's compatible states and their count, looked up once: a
	// pattern's weight is divided by the count and added to those states in
	// ascending order, the same operations in the same order as summing and
	// scanning the code's tip vector.
	var states [alignment.NumAACodes][]uint8
	var n [alignment.NumAACodes]float64
	for c := range alignment.NumCodes(p.Type) {
		states[c] = alignment.TipStates(p.Type, byte(c))
		n[c] = float64(len(states[c]))
	}
	for _, row := range p.Tips {
		for i, code := range row {
			if n[code] == 0 {
				continue
			}
			w := p.Weights[i] / n[code]
			for _, st := range states[code] {
				counts[st] += w
			}
		}
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		for i := range counts {
			counts[i] = 1 / float64(s)
		}
		return counts
	}
	for i := range counts {
		// Pseudocount floor keeps frequencies strictly positive.
		counts[i] = (counts[i] + 0.1) / (total + 0.1*float64(s))
	}
	return counts
}
