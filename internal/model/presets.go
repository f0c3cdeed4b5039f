package model

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"phylo/internal/alignment"
)

// The constant presets, each decomposed once per process on first use: New
// at one category and the default alpha. Every call of JC69, SYN20 or
// Poisson20 is a copy of one (see instance); none is handed out.
var (
	jc69Preset = sync.OnceValues(func() (*Model, error) {
		return New(alignment.DNA, nil, nil, DefaultAlpha, 1)
	})
	syn20Preset = sync.OnceValues(func() (*Model, error) {
		return New(alignment.AA, syn20Freqs(), syn20ExRates(), DefaultAlpha, 1)
	})
	poisson20Preset = sync.OnceValues(func() (*Model, error) {
		return New(alignment.AA, nil, nil, DefaultAlpha, 1)
	})
)

// instance is what New returns for the frequencies and exchangeabilities of
// the preset, errors included, at numCats categories and shape alpha: a deep
// copy of the preset's decomposition that shares no array with it. catRates,
// when not nil, are the category rates of (alpha, numCats).
func instance(preset func() (*Model, error), numCats int, alpha float64, catRates []float64) (*Model, error) {
	if numCats < 1 {
		return nil, errNoCats
	}
	p, err := preset()
	if err != nil {
		return nil, err
	}
	m := p.cloneCats(numCats)
	m.NumCats = numCats
	if err := m.setAlpha(alpha, catRates); err != nil {
		return nil, err
	}
	return m, nil
}

// JC69 returns the Jukes-Cantor model (uniform frequencies, equal rates).
// Its closed-form transition probabilities make it the reference model for
// validating the eigendecomposition machinery. Its decomposition is computed
// once per process.
func JC69(numCats int, alpha float64) (*Model, error) {
	return instance(jc69Preset, numCats, alpha, nil)
}

// JC69Prob is the closed-form Jukes-Cantor transition probability between
// states i and j after branch length t (in expected substitutions per site).
func JC69Prob(i, j int, t float64) float64 {
	e := math.Exp(-4.0 / 3.0 * t)
	if i == j {
		return 0.25 + 0.75*e
	}
	return 0.25 - 0.25*e
}

// HKY85 returns the Hasegawa-Kishino-Yano model with transition/transversion
// ratio kappa and the given base frequencies (nil for uniform).
func HKY85(freqs []float64, kappa float64, numCats int, alpha float64) (*Model, error) {
	if kappa <= 0 {
		return nil, fmt.Errorf("model: kappa %v must be positive", kappa)
	}
	s := 4
	ex := make([]float64, NumExRates(s))
	for i := range ex {
		ex[i] = 1
	}
	// Transitions: A<->G (0,2) and C<->T (1,3).
	ex[RateIndex(s, 0, 2)] = kappa
	ex[RateIndex(s, 1, 3)] = kappa
	return New(alignment.DNA, freqs, ex, alpha, numCats)
}

// GTR returns a general time-reversible DNA model with explicit parameters.
func GTR(freqs, exRates []float64, numCats int, alpha float64) (*Model, error) {
	return New(alignment.DNA, freqs, exRates, alpha, numCats)
}

// syn20ExRates builds the deterministic synthetic 20-state exchangeability
// matrix "SYN20". The paper's protein runs use empirical matrices (WAG etc.);
// per DESIGN.md the reproduction only needs a valid, fixed, heterogeneous
// time-reversible 20-state model, because the load-balance behaviour depends
// on the 20x20 FLOP cost, not on the biological rate values. The generator is
// a small multiplicative congruential sequence mapped into [0.02, 8] with a
// heavy right tail, which mimics the dynamic range of WAG.
func syn20ExRates() []float64 {
	n := NumExRates(20)
	rates := make([]float64, n)
	state := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		// xorshift64
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u := float64(state%1000000) / 1000000.0
		rates[i] = 0.02 + 8*u*u*u // cubic skew: many small rates, few large
	}
	rates[n-1] = 1 // GTR normalization convention
	return rates
}

// syn20Freqs builds the matching deterministic frequency vector, spanning the
// 1.5%..9% range typical of empirical amino-acid frequency sets.
func syn20Freqs() []float64 {
	f := make([]float64, 20)
	state := uint64(424242424242)
	sum := 0.0
	for i := range f {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		f[i] = 0.015 + 0.075*float64(state%1000)/1000.0
		sum += f[i]
	}
	for i := range f {
		f[i] /= sum
	}
	return f
}

// SYN20 returns the synthetic fixed 20-state protein model (see DESIGN.md,
// substitution #3). Its 20 x 20 eigendecomposition is computed once per
// process; each call returns a deep copy with its own Gamma categories.
func SYN20(numCats int, alpha float64) (*Model, error) {
	return instance(syn20Preset, numCats, alpha, nil)
}

// Poisson20 returns the 20-state equal-rates model (the protein analogue of
// Jukes-Cantor), mainly used by tests. Its decomposition is computed once per
// process.
func Poisson20(numCats int, alpha float64) (*Model, error) {
	return instance(poisson20Preset, numCats, alpha, nil)
}

// ByName constructs a model from a partition-file model name, optionally
// seeding frequencies empirically from data.
func ByName(name string, part *alignment.CompressedPartition, numCats int, alpha float64) (*Model, error) {
	upper := strings.ToUpper(name)
	switch {
	case upper == "JC" || upper == "JC69":
		return JC69(numCats, alpha)
	case upper == "DNA" || upper == "GTR" || strings.HasPrefix(upper, "GTR"):
		var freqs []float64
		if part != nil {
			freqs = EmpiricalFreqs(part)
		}
		return GTR(freqs, nil, numCats, alpha)
	case upper == "SYN20" || upper == "WAG" || upper == "JTT" || upper == "LG" ||
		upper == "DAYHOFF" || strings.HasPrefix(upper, "PROT"):
		return SYN20(numCats, alpha)
	case upper == "POISSON" || upper == "AA":
		return Poisson20(numCats, alpha)
	default:
		return nil, fmt.Errorf("model: unknown model name %q", name)
	}
}

// DefaultsFor builds the default model of every partition: GTR with
// empirical frequencies for DNA, SYN20 for protein. The Gamma rates of
// (numCats, alpha) are computed once for all of them.
func DefaultsFor(parts []*alignment.CompressedPartition, numCats int, alpha float64) ([]*Model, error) {
	models := make([]*Model, len(parts))
	var rates []float64 // the first model's, copied into the others
	for i, p := range parts {
		var m *Model
		var err error
		if p.Type == alignment.DNA {
			m, err = newModel(alignment.DNA, EmpiricalFreqs(p), nil, alpha, numCats, rates)
		} else {
			m, err = instance(syn20Preset, numCats, alpha, rates)
		}
		if err != nil {
			return nil, err
		}
		models[i], rates = m, m.CatRates
	}
	return models, nil
}
