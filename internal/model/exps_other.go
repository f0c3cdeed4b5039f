//go:build !amd64

package model

// Without an assembly realisation Exps takes every exponential with math.Exp.
var vectorExp = false

func expsVec(x []float64) int { return 0 }
