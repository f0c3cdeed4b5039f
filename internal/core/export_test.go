package core

import (
	"math"
	"reflect"
	"unsafe"
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
