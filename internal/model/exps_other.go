//go:build !amd64

package model

// Without an assembly realisation Exps takes every exponential with math.Exp.
func expsVec(x []float64) int { return 0 }

// expFMAMatches is false: there is no 4-lane exponential to match math.Exp.
func expFMAMatches() bool { return false }
