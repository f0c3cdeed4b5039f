package model

import (
	"math"

	"phylo/internal/cpufeat"
)

// Exps sets x[i] = math.Exp(x[i]) for every i, bit for bit. It is the one
// place the likelihood kernel's exponentials are taken in bulk (the
// derivative binding's exp(lambda_k r_c z) table in internal/core, the
// 20-state PMatrices' exp(lambda_k t_c)), so a different exp is one swap here.
// Where ExpsKernel is on, whole quartets run on the 4-lane exp of
// exp_amd64.h, which reproduces math.Exp on the hosts it runs on; a quartet
// with an argument outside [-700, 700] or NaN, and the len(x) mod 4 tail,
// take math.Exp.
//
//plk:hotpath
func Exps(x []float64) {
	for k := expsVec(x); k < len(x); k++ {
		x[k] = math.Exp(x[k])
	}
}

// ExpsKernel is Exps' 4-lane exponential, exps_amd64.s. It runs where the
// CPU has AVX2 and FMA and the exponential gives math.Exp's bits on the
// probes (expFMAMatches); the 4-state PMatrices kernel runs it too.
var ExpsKernel = cpufeat.NewKernel("Exps (AVX2+FMA)", cpufeat.AVX2 && cpufeat.FMA && expFMAMatches())
