package core

// logAVX sets x[k] = math.Log(x[k]) for the len(x)/4 whole quartets of x
// (sitelog_amd64.s: math.Log's own instruction sequence, one lane an entry).
//
//go:noescape
func logAVX(x []float64)

// logsVec takes the logs of x's whole quartets on the kernel and returns how
// many entries it took, from the front: 0 where the kernel does not run.
//
//plk:hotpath
func logsVec(x []float64) int {
	n := len(x) &^ 3
	if !SiteLogKernel.On() || n == 0 {
		return 0
	}
	logAVX(x[:n])
	return n
}
