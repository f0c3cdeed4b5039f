package model

import "math"

// Exps sets x[i] = math.Exp(x[i]) for every i, bit for bit. It is the one
// place the likelihood kernel's exponentials are taken in bulk (the
// derivative binding's exp(lambda_k r_c z) table in internal/core, the
// 20-state PMatrices' exp(lambda_k t_c)), so a different exp is one swap here.
// Where VectorExp, whole quartets run on the 4-lane exp of exp_amd64.h, which
// reproduces math.Exp on the hosts it runs on; a quartet with an argument
// outside [-700, 700] or NaN, and the len(x) mod 4 tail, take math.Exp.
//
//plk:hotpath
func Exps(x []float64) {
	for k := expsVec(x); k < len(x); k++ {
		x[k] = math.Exp(x[k])
	}
}

// VectorExp reports whether Exps runs its 4-lane kernel: where the 4-state
// PMatrices kernel runs (VectorPMatrix's host test), the same exponential.
func VectorExp() bool { return vectorExp }

// SetVectorExp turns the kernel on (where the host runs it) or off and
// returns the previous setting, so a test can run a suite under both
// realisations; the results are the same bits either way. Not safe while
// Exps runs.
func SetVectorExp(on bool) (was bool) {
	was, vectorExp = vectorExp, on && hostPMatrix
	return was
}
