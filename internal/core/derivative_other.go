//go:build !amd64

package core

// Without an assembly realisation derivativeGeneric's paired loop takes
// every pattern.
func derivQuartets(out, sum, e, g1, g2 []float64, quartets int) bool { return false }
