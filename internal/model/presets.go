package model

import (
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

// DefaultsFor builds the default model of every partition: GTR with
// empirical frequencies for DNA, SYN20 for protein. Partitions in one default
// state (every protein one; DNA ones whose frequencies agree bit for bit) get
// Clones of one model, so they report one epoch. The Gamma rates of (numCats,
// alpha) are computed once for all of them.
func DefaultsFor(parts []*alignment.CompressedPartition, numCats int, alpha float64) ([]*Model, error) {
	models := make([]*Model, len(parts))
	var rates []float64 // the first model's, copied into the others
	states := map[[4]float64]*Model{}
	for i, p := range parts {
		var key [4]float64 // the state: a DNA partition's frequencies (positive: == is bit equality), zero for protein
		var freqs []float64
		if p.Type == alignment.DNA {
			freqs = EmpiricalFreqs(p)
			key = [4]float64(freqs)
		}
		if first := states[key]; first != nil {
			models[i] = first.Clone()
			continue
		}
		var m *Model
		var err error
		if freqs != nil {
			m, err = newModel(alignment.DNA, freqs, nil, alpha, numCats, rates)
		} else {
			m, err = instance(syn20Preset, numCats, alpha, rates)
		}
		if err != nil {
			return nil, err
		}
		models[i], states[key], rates = m, m, m.CatRates
	}
	return models, nil
}
