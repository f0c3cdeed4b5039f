package core

import "math"

// Seams for recycle_test.go, which lives in package core_test because it
// drives the optimizer (internal/opt imports this package).

// The in-package fixtures it shares with the other kernel tests.
var (
	TaxaNames       = taxaNames
	RandomAlignment = randomAlignment
	ContiguousParts = contiguousParts
)

// ParkPoisoned leaves exactly the kind of buffer set a hostile predecessor
// would: it takes the set a released session parked on sh (allocating one if
// the pool is empty), fills every float with NaN, every scaling exponent with
// a large count and every scaling flag with true, and parks it again. The
// returned token identifies the set (see Engine.BufferSet). With smoothed the
// set carries a (poisoned) sumtable, as after a session that optimized branch
// lengths; without, a nil sumtable stays nil, as after an evaluate-only one.
func ParkPoisoned(sh *Shared, smoothed bool) any {
	b, _ := sh.retired.Get().(*sessionBuffers)
	if b == nil {
		b = newSessionBuffers(sh)
	}
	if smoothed && b.sumtable == nil {
		b.sumtable = alignedFloats(sh.layout.SumTotal())
	}
	nan := func(v []float64) {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	for i := range b.clvs {
		nan(b.clvs[i])
		for j := range b.scales[i] {
			b.scales[i][j] = 1 << 20
		}
	}
	nan(b.sumtable)
	for w := range b.pmScratch {
		nan(b.pmScratch[w][0])
		nan(b.pmScratch[w][1])
		nan(b.exScratch[w])
		nan(b.tipScratch[w][0])
		nan(b.tipScratch[w][1])
	}
	for _, flags := range b.smallScratch {
		for i := range flags {
			flags[i] = true
		}
	}
	sh.retired.Put(b)
	return b
}

// BufferSet identifies the buffer set the session holds (a nil pointer after
// Release), comparable with ParkPoisoned's token.
func (e *Engine) BufferSet() any { return e.sessionBuffers }

// HasSumtable reports whether the session's set carries a sumtable yet.
func (e *Engine) HasSumtable() bool { return e.sumtable != nil }
