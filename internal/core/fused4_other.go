//go:build !amd64

package core

// Without an assembly realisation the plane calls take no pattern, and the
// scalar loops of newviewFused4 run every plane.
var vectorPlanes = false

func planeInner(d, xa, xb, pa, pb []float64, small []bool, j0, n, step int, first bool) int {
	return 0
}

func planeTipInner(d, x, tab []float64, row []byte, p []float64, small []bool, j0, n, step, cs, to int, first bool) int {
	return 0
}

func planeTipTip(d, ta, tb []float64, ra, rb []byte, small []bool, j0, n, step, cs, to int, first bool) int {
	return 0
}
