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

// vectorExp is whether Exps runs the kernel (SetVectorExp).
var vectorExp = hostPMatrix

// expsVec takes the exponentials of x's whole quartets, on the kernel and
// with math.Exp where it refuses one, and returns how many entries it took,
// from the front: 0 where the kernel does not run.
//
//plk:hotpath
func expsVec(x []float64) int {
	n := len(x) &^ 3
	if !vectorExp || n == 0 {
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
