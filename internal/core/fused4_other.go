//go:build !amd64

package core

// Without an assembly realisation the plane calls take no pattern, and the
// scalar loops of newviewFused4 run every plane.

func planeInner(d, xa, xb, pa, pb []float64, small []byte, j0, n int, first bool) int {
	return 0
}

func planeTipInner(d, x, tab []float64, row []byte, p []float64, small []byte, j0, n, cs, to int, first bool) int {
	return 0
}

func planeTipTip(d, ta, tb []float64, ra, rb, small []byte, j0, n, cs, to int, first bool) int {
	return 0
}
