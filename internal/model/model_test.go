package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"phylo/internal/alignment"
)

func TestRateIndex(t *testing.T) {
	// 4 states: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5.
	wants := map[[2]int]int{
		{0, 1}: 0, {0, 2}: 1, {0, 3}: 2, {1, 2}: 3, {1, 3}: 4, {2, 3}: 5,
	}
	for pair, want := range wants {
		if got := RateIndex(4, pair[0], pair[1]); got != want {
			t.Errorf("RateIndex(4,%d,%d) = %d, want %d", pair[0], pair[1], got, want)
		}
		if got := RateIndex(4, pair[1], pair[0]); got != want {
			t.Errorf("RateIndex symmetric (%d,%d) = %d, want %d", pair[1], pair[0], got, want)
		}
	}
	// All 20-state indices are distinct and in range.
	seen := make(map[int]bool)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			idx := RateIndex(20, i, j)
			if idx < 0 || idx >= NumExRates(20) || seen[idx] {
				t.Fatalf("RateIndex(20,%d,%d) = %d invalid or duplicate", i, j, idx)
			}
			seen[idx] = true
		}
	}
}

func TestJC69ClosedForm(t *testing.T) {
	m, err := JC69(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 16)
	for _, bl := range []float64{0, 0.01, 0.1, 0.5, 1, 3} {
		m.PMatrix(bl, p)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := JC69Prob(i, j, bl)
				if math.Abs(p[i*4+j]-want) > 1e-12 {
					t.Errorf("bl=%v P[%d][%d] = %v, want %v", bl, i, j, p[i*4+j], want)
				}
			}
		}
	}
}

func TestPMatrixStochastic(t *testing.T) {
	models := map[string]*Model{}
	if m, err := GTR([]float64{0.3, 0.2, 0.25, 0.25}, []float64{1.2, 2.5, 0.7, 1.1, 3.9, 1}, 4, 0.7); err == nil {
		models["GTR"] = m
	} else {
		t.Fatal(err)
	}
	if m, err := SYN20(4, 0.5); err == nil {
		models["SYN20"] = m
	} else {
		t.Fatal(err)
	}
	if m, err := HKY85([]float64{0.4, 0.1, 0.2, 0.3}, 4, 2, 1.2); err == nil {
		models["HKY"] = m
	} else {
		t.Fatal(err)
	}
	for name, m := range models {
		s := m.States
		p := make([]float64, s*s)
		for _, bl := range []float64{0, 0.001, 0.05, 0.5, 2, 10} {
			m.PMatrix(bl, p)
			for i := 0; i < s; i++ {
				row := 0.0
				for j := 0; j < s; j++ {
					if p[i*s+j] < 0 || p[i*s+j] > 1+1e-12 {
						t.Errorf("%s bl=%v: P[%d][%d] = %v outside [0,1]", name, bl, i, j, p[i*s+j])
					}
					row += p[i*s+j]
				}
				if math.Abs(row-1) > 1e-10 {
					t.Errorf("%s bl=%v: row %d sums to %v", name, bl, i, row)
				}
			}
		}
		// P(0) = I.
		m.PMatrix(0, p)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(p[i*s+j]-want) > 1e-10 {
					t.Errorf("%s: P(0)[%d][%d] = %v", name, i, j, p[i*s+j])
				}
			}
		}
		// Detailed balance: pi_i P_ij(t) = pi_j P_ji(t).
		m.PMatrix(0.37, p)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				lhs := m.Freqs[i] * p[i*s+j]
				rhs := m.Freqs[j] * p[j*s+i]
				if math.Abs(lhs-rhs) > 1e-12 {
					t.Errorf("%s: detailed balance (%d,%d): %v vs %v", name, i, j, lhs, rhs)
				}
			}
		}
		// P(t) -> stationary distribution as t -> inf.
		m.PMatrix(500, p)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				if math.Abs(p[i*s+j]-m.Freqs[j]) > 1e-6 {
					t.Errorf("%s: P(inf)[%d][%d] = %v, want pi_j = %v", name, i, j, p[i*s+j], m.Freqs[j])
				}
			}
		}
	}
}

func TestQNormalization(t *testing.T) {
	m, err := GTR([]float64{0.35, 0.15, 0.2, 0.3}, []float64{0.5, 2, 1.5, 0.8, 3, 1}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := m.BuildQ()
	rate := 0.0
	for i := 0; i < 4; i++ {
		rowSum := 0.0
		for j := 0; j < 4; j++ {
			rowSum += q[i*4+j]
		}
		if math.Abs(rowSum) > 1e-12 {
			t.Errorf("Q row %d sums to %v", i, rowSum)
		}
		rate -= m.Freqs[i] * q[i*4+i]
	}
	if math.Abs(rate-1) > 1e-12 {
		t.Errorf("expected substitution rate = %v, want 1", rate)
	}
	// Eigenvalues: one zero, rest negative.
	zero, neg := 0, 0
	for _, v := range m.EigenVals {
		switch {
		case math.Abs(v) < 1e-10:
			zero++
		case v < 0:
			neg++
		}
	}
	if zero != 1 || neg != 3 {
		t.Errorf("eigenvalues %v: want exactly one zero, rest negative", m.EigenVals)
	}
}

func TestSetAlphaRates(t *testing.T) {
	m, err := JC69(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetAlpha(0.5); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range m.CatRates {
		sum += r
	}
	if math.Abs(sum/4-1) > 1e-9 {
		t.Errorf("category rates mean %v, want 1", sum/4)
	}
	// Re-setting the alpha the rates hold recomputes them, so a stray write
	// is repaired, and moves the epoch, on the model and on a clone.
	rates, e0 := slices.Clone(m.CatRates), m.Epoch()
	m.CatRates[0] = 42
	c := m.Clone()
	if err := m.SetAlpha(0.5); err != nil || !slices.Equal(m.CatRates, rates) || m.Epoch() == e0 {
		t.Errorf("SetAlpha(0.5) again: rates %v, epoch %d (before %d); want %v and moved", m.CatRates, m.Epoch(), e0, rates)
	}
	if err := c.SetAlpha(0.5); err != nil || !slices.Equal(c.CatRates, rates) || c.Epoch() == e0 {
		t.Errorf("a clone's SetAlpha(0.5): rates %v, epoch %d (before %d); want %v and moved", c.CatRates, c.Epoch(), e0, rates)
	}
	if err := m.SetAlpha(0.7); err != nil {
		t.Fatal(err)
	}
	if err := m.SetAlpha(0.5); err != nil || !slices.Equal(m.CatRates, rates) {
		t.Errorf("SetAlpha(0.5) after 0.7: rates %v, want %v", m.CatRates, rates)
	}
	if err := m.SetAlpha(0.001); err == nil {
		t.Error("expected error below MinAlpha")
	}
	if err := m.SetAlpha(1e9); err == nil {
		t.Error("expected error above MaxAlpha")
	}
}

func TestSettersAndDirty(t *testing.T) {
	m, err := GTR(nil, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dirty() {
		t.Error("fresh model must not be dirty")
	}
	// The epoch moves exactly when what PMatrices reads does: not on a setter
	// that only marks the decomposition stale, nor on a rejected value.
	e0 := m.Epoch()
	if err := m.SetExRate(0, 2.5); err != nil {
		t.Fatal(err)
	}
	if !m.Dirty() {
		t.Error("SetExRate must mark dirty")
	}
	if m.SetAlpha(-1) == nil || m.Epoch() != e0 {
		t.Errorf("epoch %d after SetExRate and a rejected SetAlpha, want %d", m.Epoch(), e0)
	}
	if err := m.UpdateEigen(); err != nil {
		t.Fatal(err)
	}
	if m.Dirty() {
		t.Error("UpdateEigen must clear dirty")
	}
	if m.Epoch() == e0 {
		t.Error("UpdateEigen must move the epoch")
	}
	e1 := m.Epoch()
	if err := m.SetAlpha(0.5); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() == e1 || m.Clone().Epoch() != m.Epoch() {
		t.Errorf("epoch %d after SetAlpha (before: %d), its Clone's %d; want moved and carried", m.Epoch(), e1, m.Clone().Epoch())
	}
	if err := m.SetExRate(99, 1); err == nil {
		t.Error("expected error for bad rate index")
	}
	if err := m.SetExRate(0, -1); err == nil {
		t.Error("expected error for negative rate")
	}
	if err := m.SetFreqs([]float64{0.7, 0.1, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	if !m.Dirty() {
		t.Error("SetFreqs must mark dirty")
	}
	if err := m.SetFreqs([]float64{1, 2}); err == nil {
		t.Error("expected error for wrong frequency count")
	}
	if err := m.SetFreqs([]float64{-1, 1, 1, 1}); err == nil {
		t.Error("expected error for negative frequency")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(alignment.DNA, []float64{1, 2, 3}, nil, 1, 4); err == nil {
		t.Error("expected error for 3 freqs")
	}
	if _, err := New(alignment.DNA, nil, []float64{1, 2}, 1, 4); err == nil {
		t.Error("expected error for 2 exchangeabilities")
	}
	if _, err := New(alignment.DNA, nil, []float64{1, 1, 1, 1, 1, -2}, 1, 4); err == nil {
		t.Error("expected error for negative exchangeability")
	}
	if _, err := New(alignment.DNA, nil, nil, 1, 0); err == nil {
		t.Error("expected error for 0 categories")
	}
	if _, err := New(alignment.DataType(99), nil, nil, 1, 4); err == nil {
		t.Error("expected error for unknown data type")
	}
	if _, err := HKY85(nil, -2, 1, 1); err == nil {
		t.Error("expected error for negative kappa")
	}
}

func TestClone(t *testing.T) {
	m, err := GTR([]float64{0.3, 0.2, 0.25, 0.25}, nil, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if !slices.Equal(c.EigenVecsT, m.EigenVecsT) || !slices.Equal(c.InvVecsT, m.InvVecsT) {
		t.Error("Clone must carry the transposed eigenvectors")
	}
	c.Freqs[0] = 0.99
	c.ExRates[0] = 42
	c.CatRates[0] = 42
	c.EigenVecsT[0] = 42
	if m.Freqs[0] == 0.99 || m.ExRates[0] == 42 || m.CatRates[0] == 42 || m.EigenVecsT[0] == 42 {
		t.Error("Clone must deep-copy parameter slices")
	}
	// A clone's slices share one array: an append to one must not reach the next.
	c = m.Clone()
	_ = append(c.Freqs, 42)
	_ = append(c.EigenVecs, 42)
	if !slices.Equal(c.ExRates, m.ExRates) || !slices.Equal(c.EigenVecsT, m.EigenVecsT) {
		t.Error("an append to one of a clone's slices overwrote the next")
	}
}

func TestEmpiricalFreqs(t *testing.T) {
	a, err := alignment.New(
		[]string{"t1", "t2", "t3"},
		[][]byte{[]byte("AAAC"), []byte("AACG"), []byte("AA-T")},
	)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := EmpiricalFreqs(d.Parts[0])
	sum := 0.0
	for _, v := range f {
		if v <= 0 {
			t.Errorf("empirical frequency %v not positive", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("frequencies sum to %v", sum)
	}
	if !(f[0] > f[1] && f[0] > f[2] && f[0] > f[3]) {
		t.Errorf("A dominates the data but freqs are %v", f)
	}
}

func TestByNameAndDefaults(t *testing.T) {
	a, _ := alignment.New(
		[]string{"t1", "t2", "t3"},
		[][]byte{[]byte("ACGT"), []byte("ACGT"), []byte("ACGT")},
	)
	d, _ := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	for _, name := range []string{"JC", "GTR", "DNA", "WAG", "SYN20", "POISSON"} {
		m, err := ByName(name, d.Parts[0], 4, 1)
		if err != nil || m == nil {
			t.Errorf("ByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ByName("NOPE", nil, 4, 1); err == nil {
		t.Error("expected error for unknown name")
	}
	ms, err := DefaultsFor(d.Parts, 4, 1)
	if err != nil || ms[0].Type != alignment.DNA {
		t.Errorf("DefaultsFor DNA failed: %v", err)
	}
}

func TestSyn20Deterministic(t *testing.T) {
	a, err := SYN20(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SYN20(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ExRates {
		if a.ExRates[i] != b.ExRates[i] {
			t.Fatal("SYN20 must be deterministic")
		}
	}
	// The rate distribution must be heterogeneous (dynamic range > 20x).
	min, max := a.ExRates[0], a.ExRates[0]
	for _, r := range a.ExRates {
		min = math.Min(min, r)
		max = math.Max(max, r)
	}
	if max/min < 20 {
		t.Errorf("SYN20 dynamic range %v too small to mimic empirical matrices", max/min)
	}
}

// Property: random GTR models yield valid stochastic P matrices.
func TestPMatrixQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		freqs := make([]float64, 4)
		for i := range freqs {
			freqs[i] = 0.05 + rng.Float64()
		}
		ex := make([]float64, 6)
		for i := range ex {
			ex[i] = 0.05 + 3*rng.Float64()
		}
		m, err := GTR(freqs, ex, 4, 0.2+3*rng.Float64())
		if err != nil {
			return false
		}
		p := make([]float64, 16)
		bl := rng.Float64() * 5
		m.PMatrix(bl, p)
		for i := 0; i < 4; i++ {
			row := 0.0
			for j := 0; j < 4; j++ {
				if p[i*4+j] < 0 {
					return false
				}
				row += p[i*4+j]
			}
			if math.Abs(row-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPMatricesPerCategory(t *testing.T) {
	m, err := JC69(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4*16)
	m.PMatrices(0.1, dst)
	single := make([]float64, 16)
	for c := 0; c < 4; c++ {
		m.PMatrix(m.CatRates[c]*0.1, single)
		for k := 0; k < 16; k++ {
			if dst[c*16+k] != single[k] {
				t.Fatalf("category %d entry %d mismatch", c, k)
			}
		}
	}
}

// testModels returns one 4-state and one 20-state model with non-trivial
// frequencies and exchangeabilities at 4 Gamma categories.
func testModels(t *testing.T) []*Model {
	t.Helper()
	dna, err := GTR([]float64{0.31, 0.19, 0.27, 0.23}, []float64{1.3, 2.8, 0.6, 1.1, 3.5, 1}, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	aa, err := SYN20(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return []*Model{dna, aa}
}

// TestPMatrixHoistKeepsBits pins the association of PMatrix's inner product:
// scaling the eigenvector row by exp(lambda t) once per row must give the
// bits of the textbook triple product V[i][k]·exp(lambda_k t)·V^-1[k][j]
// accumulated k-ascending.
func TestPMatrixHoistKeepsBits(t *testing.T) {
	host := ApplyColsKernel.Set(true)
	t.Cleanup(func() { ApplyColsKernel.Set(host) })
	for _, m := range testModels(t) {
		s := m.States
		got := make([]float64, s*s)
		for i, bl := range []float64{0, 1e-8, 0.013, 0.4, 7.5, 64, 0, 1e-8, 0.013, 0.4, 7.5, 64} {
			ApplyColsKernel.Set(i < 6) // the 20-state columns on ApplyCols' kernel, then on its scalar loop
			m.PMatrix(bl, got)
			for i := 0; i < s; i++ {
				for j := 0; j < s; j++ {
					want := 0.0
					for k := 0; k < s; k++ {
						want += m.EigenVecs[i*s+k] * math.Exp(m.EigenVals[k]*bl) * m.InvVecs[k*s+j]
					}
					if want < 0 {
						want = 0
					}
					if got[i*s+j] != want {
						t.Fatalf("s=%d t=%v P[%d][%d] = %v, triple product %v", s, bl, i, j, got[i*s+j], want)
					}
				}
			}
		}
	}
}

// TestPMatricesLayout: block c of PMatrices is PMatrix at catRate_c·z by
// Float64bits, in the layout its comment states — row-major at four states,
// column-major (PMatrix transposed) at twenty — with every kernel on and off,
// at branch lengths a span can hand over, negative and NaN included.
func TestPMatricesLayout(t *testing.T) {
	for _, on := range []bool{true, false} {
		setKernels(t, on)
		for _, m := range testModels(t) {
			s := m.States
			got, want := make([]float64, m.NumCats*s*s), make([]float64, s*s)
			for _, z := range []float64{0, 1e-8, 0.1, 2.5, 100, -0.3, math.NaN()} {
				m.PMatrices(z, got)
				for c, rate := range m.CatRates {
					m.PMatrix(rate*z, want)
					for i := 0; i < s; i++ {
						for j := 0; j < s; j++ {
							g := got[c*s*s+i*s+j]
							if s != 4 {
								g = got[c*s*s+j*s+i]
							}
							if math.Float64bits(g) != math.Float64bits(want[i*s+j]) {
								t.Fatalf("kernels %v s=%d z=%v: P_%d[%d][%d] = %v, PMatrix %v", on, s, z, c, i, j, g, want[i*s+j])
							}
						}
					}
				}
			}
		}
	}
}

// pmatrixLoop is the generic PMatrix loop (one entry at a time, k ascending
// from zero over the row pre-scaled by exp(lambda t)) for any state count: the
// reference the written-out 4-state case must reproduce.
func pmatrixLoop(m *Model, t float64, dst []float64) {
	s := m.States
	if t < 0 {
		t = 0
	}
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			sum := 0.0
			for k := 0; k < s; k++ {
				sum += (m.EigenVecs[i*s+k] * math.Exp(m.EigenVals[k]*t)) * m.InvVecs[k*s+j]
			}
			dst[i*s+j] = clampNeg(sum)
		}
	}
}

// TestPMatrix4MatchesGeneric: the straight-line 4-state PMatrix gives the
// bits of the generic loop on random GTR models at every kind of branch
// length a span can hand it, and on an eigensystem whose terms are all signed
// zeros (a sum that started at +0 must stay +0: tip tables are gathered on the
// strength of P never holding -0).
func TestPMatrix4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lengths := []float64{-0.3, 0, 1e-8, 0.1, 10, 64, math.Copysign(0, -1), math.NaN()}
	check := func(label string, m *Model) {
		t.Helper()
		got, want := make([]float64, 16), make([]float64, 16)
		for _, bl := range lengths {
			for _, rate := range append([]float64{1}, m.CatRates...) {
				m.PMatrix(rate*bl, got)
				pmatrixLoop(m, rate*bl, want)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%s t=%v: P[%d] = %v (%#x), generic loop %v (%#x)", label, rate*bl, k,
							got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
			}
		}
	}
	for round := 0; round < 200; round++ {
		freqs, ex := make([]float64, 4), make([]float64, 6)
		for i := range freqs {
			freqs[i] = 0.05 + rng.Float64()
		}
		for i := range ex {
			ex[i] = 0.05 + 3*rng.Float64()
		}
		m, err := GTR(freqs, ex, 4, 0.2+3*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("GTR #%d", round), m)
	}
	jc, err := JC69(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	check("JC69", jc)
	for i := range jc.EigenVecs {
		jc.EigenVecs[i] = 0
		jc.InvVecs[i] = -1
	}
	check("all terms -0", jc)
}

// TestPMatricesAllocFree: the per-span P-matrix set-up runs on every worker
// in every region, so it must not touch the allocator at either alphabet.
func TestPMatricesAllocFree(t *testing.T) {
	for _, m := range testModels(t) {
		dst := make([]float64, m.NumCats*m.States*m.States)
		if allocs := testing.AllocsPerRun(100, func() { m.PMatrices(0.17, dst) }); allocs != 0 {
			t.Errorf("s=%d: PMatrices allocates %v objects per call, want 0", m.States, allocs)
		}
	}
}

// TestUpdateEigenWorkspace: re-decomposing through the model's reused
// workspace gives the bits a first decomposition of the same parameters gets
// (nothing of an earlier round leaks through the scratch), allocates nothing
// once the workspace exists, and a Clone owns its own.
func TestUpdateEigenWorkspace(t *testing.T) {
	for _, m := range testModels(t) {
		s := m.States
		rng := rand.New(rand.NewSource(int64(s)))
		for round := 0; round < 5; round++ {
			freqs := make([]float64, s)
			for i := range freqs {
				freqs[i] = 0.2 + rng.Float64()
			}
			if err := m.SetFreqs(freqs); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(m.ExRates)-1; i++ {
				if err := m.SetExRate(i, 0.1+3*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.UpdateEigen(); err != nil {
				t.Fatal(err)
			}
			fresh := m.Clone() // same parameters, no workspace yet
			if err := fresh.UpdateEigen(); err != nil {
				t.Fatal(err)
			}
			for k := range m.EigenVecs {
				if m.EigenVecs[k] != fresh.EigenVecs[k] || m.InvVecs[k] != fresh.InvVecs[k] {
					t.Fatalf("s=%d round %d: eigenvector entry %d differs from a fresh decomposition", s, round, k)
				}
			}
			for k := range m.EigenVals {
				if m.EigenVals[k] != fresh.EigenVals[k] {
					t.Fatalf("s=%d round %d: eigenvalue %d differs from a fresh decomposition", s, round, k)
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := m.UpdateEigen(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("s=%d: steady-state UpdateEigen allocates %v objects, want 0", s, allocs)
		}

		c := m.Clone()
		if c.eig != nil {
			t.Fatalf("s=%d: Clone shares the eigen workspace", s)
		}
		want := append([]float64(nil), m.EigenVecs...)
		if err := c.SetExRate(0, 2.5); err != nil {
			t.Fatal(err)
		}
		if err := c.UpdateEigen(); err != nil {
			t.Fatal(err)
		}
		if c.eig == m.eig {
			t.Fatalf("s=%d: Clone adopted its source's workspace", s)
		}
		for k := range want {
			if m.EigenVecs[k] != want[k] {
				t.Fatalf("s=%d: updating a Clone rewrote its source's eigenvectors", s)
			}
		}
	}
}
