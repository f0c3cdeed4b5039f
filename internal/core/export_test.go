package core

import (
	"math"
	"reflect"
	"unsafe"

	"phylo/internal/parallel"
	"phylo/internal/tree"
)

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
// The worker records are walked by reflection, so a float or flag buffer added
// to one later is poisoned too. What the transition-matrix memo says its
// blocks hold — z bits, model epoch, generation — stays exactly as e wrote it,
// now over NaN blocks: a successor on the same tree with clones of the same
// models looks up those very stamps, and only the generation NewSession bumps
// keeps them from hitting. The returned token identifies the set (see
// Engine.BufferSet). With smoothed the set carries a (poisoned) sumtable, as
// after a session that optimized branch lengths; without, a nil sumtable
// stays nil, as after an evaluate-only one.
func ReleasePoisoned(e *Engine, smoothed bool) any {
	b := e.sessionBuffers
	if smoothed && b.sumtable == nil {
		b.sumtable = alignedFloats(e.layout.SumTotal())
	}
	for i := range b.clvs {
		poison(reflect.ValueOf(&b.clvs[i]).Elem())
		for j := range b.scales[i] {
			b.scales[i][j] = 1 << 20
		}
	}
	poison(reflect.ValueOf(&b.sumtable).Elem())
	for _, w := range b.workers {
		poison(reflect.ValueOf(w).Elem())
	}
	e.Release()
	return b
}

// poison fills every []float64 reachable from the addressable v by value
// with NaN and every []byte with 1, skipping a worker's span binding, whose
// views alias the session's models and weights.
func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Float64:
			for i, f := 0, unsafe.Slice((*float64)(v.UnsafePointer()), v.Len()); i < len(f); i++ {
				f[i] = math.NaN()
			}
			return
		case reflect.Uint8:
			for i, f := 0, unsafe.Slice((*byte)(v.UnsafePointer()), v.Len()); i < len(f); i++ {
				f[i] = 1
			}
			return
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Type != reflect.TypeOf(spanCtx{}) {
				poison(v.Field(i))
			}
		}
	}
}

// BufferSet identifies the buffer set the session holds (a nil pointer after
// Release), comparable with ReleasePoisoned's token.
func (e *Engine) BufferSet() any { return e.sessionBuffers }

// HasSumtable reports whether the session's set carries a sumtable yet.
func (e *Engine) HasSumtable() bool { return e.sumtable != nil }

// SiteLogLikelihoods returns the per-pattern log likelihoods (unweighted) of
// one partition at the canonical root, one serial sweep the kernel tests
// compare the bodies and the parallel reduction with. It routes every
// pattern through the same span binding and kernel (layout strides, tip table
// decision, site pass) as the parallel reduction, so it cannot drift from the
// parallel path on any backend: the generic body and the fused body
// accumulate in the same order, so their site values are bit-identical and
// one serial sweep serves every backend.
func (e *Engine) SiteLogLikelihoods(ip int) []float64 {
	root := e.Tree.Tips[0].Back
	e.Tree.ClearX()
	e.TraverseRoot(root)
	if root.IsTip() && root.Back.IsTip() {
		panic("core: degenerate two-taxon tree")
	}
	part := e.Data.Parts[ip]
	out := make([]float64, part.PatternCount)
	// Runs outside any region, so worker 0's record is free to borrow; the
	// counters a bind bumps go nowhere.
	c := &e.workers[0].span
	c.bind(&region{kind: parallel.RegionEvaluate, p: root}, parallel.RegionEvaluate, 0, ip, part.PatternCount, new(parallel.WorkerCtx))
	for lo := 0; lo < part.PatternCount; lo += siteBlock {
		v := out[lo:min(part.PatternCount, lo+siteBlock)]
		for k := range v {
			j := lo + k
			v[k] = c.patternLi(j, c.base+j*c.s)
		}
		c.sites(v, part.Offset+lo, c.invCats)
	}
	return out
}

// executeSteps runs a hand-built step list (a swapped child pair, one step of
// a longer traversal) as one newview region under the engine's CLV rule, as
// rootSteps keeps it for a listing: stale flags are cleared first, and the
// steps' stamp marks the flags partial under a mask and forgets the sumtable.
func (e *Engine) executeSteps(steps []tree.TraversalStep, active []bool) {
	e.steps = append(e.steps[:0], steps...)
	act := e.activeOrAll(active)
	e.stamp(e.checkX(), act)
	e.runRegion(region{kind: parallel.RegionNewview, steps: e.steps, stepAct: act}, active)
}

// Read-outs only the kernel tests use.

// Weight returns replicate r's weight for global pattern i.
func (ws *WeightSet) Weight(i, r int) float64 { return ws.w[i*ws.r+r] }

// SumIndex returns the sumtable offset of (partition ip, local pattern j,
// category 0, state 0); the pattern's cats·s block is contiguous from there.
func (l *CLVLayout) SumIndex(ip, j int) int {
	p := &l.parts[ip]
	return p.sumBase + j*p.cs
}

// Base returns partition ip's CLV base offset.
func (l *CLVLayout) Base(ip int) int { return l.parts[ip].base }

// CatStride returns the offset between consecutive categories of partition
// ip: one aligned plane.
func (l *CLVLayout) CatStride(ip int) int { return l.parts[ip].catStride }
