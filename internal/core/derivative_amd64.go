package core

// derivQuartetsAVX writes, for each of quartets groups of four consecutive
// patterns whose sumtable rows start at sum[0], sum[cs], sum[2·cs], …, the
// three sums of derivativeGeneric: out[12q+p], out[12q+4+p], out[12q+8+p] are
// l, l1 and l2 of pattern 4q+p. cs = len(e) is a positive multiple of four.
//
//go:noescape
func derivQuartetsAVX(out, sum, e, g1, g2 []float64, quartets int)

// derivQuartets runs the kernel over quartets quartets, or reports false where
// it does not run or the shapes are not its own: every index is checked here,
// once, by the last row's end.
//
//plk:hotpath
func derivQuartets(out, sum, e, g1, g2 []float64, quartets int) bool {
	cs := len(e)
	if !DerivativeKernel.On() || quartets < 1 || cs == 0 || cs%4 != 0 ||
		len(g1) < cs || len(g2) < cs || len(out) < 12*quartets || 4*quartets*cs > len(sum) {
		return false
	}
	derivQuartetsAVX(out, sum, e, g1, g2, quartets)
	return true
}
