package model

import (
	"fmt"
	"math"

	"phylo/internal/alignment"
)

// Test-only entry points: a closed-form reference probability, a second
// DNA preset and a frequency setter the model tests check the
// eigendecomposition and the stale-decomposition rule with. The program
// builds its models through New and the presets.

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
