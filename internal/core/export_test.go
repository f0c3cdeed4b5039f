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

// ReleasePoisoned ends session e the way a hostile predecessor would: every
// float of its buffer set becomes NaN, every scaling exponent a large count
// and every scaling flag true, and the set is parked for the next NewSession.
// What the transition-matrix memo says its blocks hold — z bits, model epoch,
// generation — stays exactly as e wrote it, now over NaN blocks: a successor
// on the same tree with clones of the same models looks up those very stamps,
// and only the generation NewSession bumps keeps them from hitting. The
// returned token identifies the set (see Engine.BufferSet). With smoothed the
// set carries a (poisoned) sumtable, as after a session that optimized branch
// lengths; without, a nil sumtable stays nil, as after an evaluate-only one.
func ReleasePoisoned(e *Engine, smoothed bool) any {
	b := e.sessionBuffers
	if smoothed && b.sumtable == nil {
		b.sumtable = alignedFloats(e.layout.SumTotal())
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
	for w := range b.pm {
		nan(b.pm[w].spare)
		for _, mm := range b.pm[w].memo {
			if mm != nil {
				for _, blk := range mm.blk {
					nan(blk)
				}
			}
		}
		nan(b.exScratch[w])
		nan(b.tipScratch[w][0])
		nan(b.tipScratch[w][1])
	}
	for _, flags := range b.smallScratch {
		for i := range flags {
			flags[i] = 1
		}
	}
	e.Release()
	return b
}

// BufferSet identifies the buffer set the session holds (a nil pointer after
// Release), comparable with ReleasePoisoned's token.
func (e *Engine) BufferSet() any { return e.sessionBuffers }

// HasSumtable reports whether the session's set carries a sumtable yet.
func (e *Engine) HasSumtable() bool { return e.sumtable != nil }
