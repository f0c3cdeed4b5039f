package model

import (
	"math"
	"math/bits"
)

// expsAVX sets x[i] = exp(x[i]) on exp_amd64.h's 4-lane exponential for the
// len(x)/4 whole quartets of x, at most 64 of them, except those with a lane
// outside [-700, 700] or NaN: they keep their arguments, and bit q of the
// result is set for quartet q.
//
//go:noescape
func expsAVX(x []float64) (refused uint64)

// expsVec takes the exponentials of x's whole quartets, on the kernel and
// with math.Exp where it refuses one, and returns how many entries it took,
// from the front: 0 where the kernel does not run.
//
//plk:hotpath
func expsVec(x []float64) int {
	n := len(x) &^ 3
	if !ExpsKernel.On() || n == 0 {
		return 0
	}
	for lo := 0; lo < n; lo += 256 {
		q := x[lo:min(lo+256, n)]
		for m := expsAVX(q); m != 0; m &= m - 1 {
			r := q[4*bits.TrailingZeros64(m):][:4]
			for k, v := range r {
				r[k] = math.Exp(v)
			}
		}
	}
	return n
}

// expProbes are arguments on which math.Exp's FMA and SSE sequences round
// differently (the GODEBUG=cpu.fma=off run of TestHostPMatrixIsMathExps).
var expProbes = [8]float64{
	-0.3567439074285613, -0.03998776221889851, -5.780678908578634, -1.0556343396048473,
	-2.211501774682181, -0.29877537184880915, -2.642657154817912, -5.744042848898937,
}

// expFMAMatches runs the 4-lane exponential (expsAVX, the one copy
// pmatrices4AVX runs too) on the probes and reports whether every one is
// math.Exp's bits. CPUID is not enough: math.Exp decides its sequence by
// internal/cpu, which GODEBUG=cpu.fma=off overrides; there the scalar code
// runs.
func expFMAMatches() bool {
	x := expProbes
	if expsAVX(x[:]) != 0 {
		return false
	}
	for k, p := range expProbes {
		if math.Float64bits(x[k]) != math.Float64bits(math.Exp(p)) {
			return false
		}
	}
	return true
}
