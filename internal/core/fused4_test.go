package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phylo/internal/cpufeat"
	"phylo/internal/schedule"
)

// The two realisations of the fused newview's plane loops: the AVX kernels
// (fused4_amd64.s) where the host has them, the scalar loops of
// newviewFused4 everywhere. TestFusedPlanesMatchScalar holds the first to the
// second bit for bit; forEachPlanes runs the backend acceptance tests under
// both, so the scalar loops stay tested on a host that would never run them.
// The same two arms switch every other kernel of internal/core and
// internal/model between its assembly and its scalar reference; DESIGN.md's
// "Kernel realisations" table names each one's bit-identity test.

// forEachPlanes runs f as one subtest per realisation this host has, with
// every kernel cpufeat.Kernels lists set to it: "avx" (skipped where no
// kernel runs; each runs where its host condition holds) and "scalar", where
// every declared kernel is off, so the scalar code is under test whatever
// kernels exist.
func forEachPlanes(t *testing.T, f func(t *testing.T)) {
	kernels := cpufeat.Kernels()
	host := make([]bool, len(kernels))
	for i, k := range kernels {
		host[i] = k.On()
	}
	t.Cleanup(func() {
		for i, k := range kernels {
			k.Set(host[i])
		}
	})
	for _, arm := range []struct {
		name string
		on   bool
	}{{"avx", true}, {"scalar", false}} {
		t.Run(arm.name, func(t *testing.T) {
			if arm.on && !slices.Contains(host, true) {
				t.Skip("no kernel runs on this host: the scalar code is its only realisation")
			}
			for _, k := range kernels {
				k.Set(arm.on)
			}
			if !arm.on {
				for _, k := range cpufeat.Kernels() {
					if k.On() {
						t.Fatalf("%v is on in the scalar arm", k)
					}
				}
				if VectorLanes(BackendFused, 4) != 1 || VectorLanes(BackendGeneric, 20) != 1 {
					t.Fatalf("scalar arm: %d lanes at 4 states (fused), %d at 20 (generic), want 1",
						VectorLanes(BackendFused, 4), VectorLanes(BackendGeneric, 20))
				}
			}
			f(t)
		})
	}
}

// planeValues are the entries a CLV or table is salted with: signed zeros,
// subnormals, 2^-256 and its neighbours of both signs (the scaling
// threshold), ones, infinities and NaN.
func planeValues() []float64 {
	tiny := minLikelihood
	up, down := math.Nextafter(tiny, 1), math.Nextafter(tiny, 0)
	return []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310,
		tiny, -tiny, up, -up, down, -down,
		1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	}
}

// TestFusedPlanesMatchScalar runs newviewFused4 with the vector planes and
// with the scalar loops over the same inputs and compares every output bit:
// the CLV planes (entries outside the run included), the scaling exponents,
// the scaling flags and the scaling-event count. It
// covers tip/tip, tip/inner with the tip at either end and inner/inner; run
// lengths 0…9 and 250; three categories (the first stores
// the flag, later ones and into it) over a flag array poisoned true and
// poisoned false; and inputs from plain (0, 1) draws through planes salted
// with planeValues to planes of values around 2^-256 and on it (so whole
// patterns rescale, and some stop exactly at the threshold).
func TestFusedPlanesMatchScalar(t *testing.T) {
	if !planesKernel.On() {
		t.Skip("no AVX on this host: the scalar loops are its only realisation")
	}
	t.Cleanup(func() { planesKernel.Set(true) })
	const (
		offset   = 5   // the partition's first global pattern
		patterns = 260 // enough for a 250-pattern run
		cats     = 3
		cs       = cats * 4
		stride   = patterns*4 + 4 // catStride: planes padded, and not 32-byte multiples
		base     = 4
		codes    = 16
	)
	rng := rand.New(rand.NewSource(61))
	edges := planeValues()
	tiny, below := minLikelihood, math.Nextafter(minLikelihood, 0)
	boundary := []float64{tiny, -tiny, below, -below, 0, math.Copysign(0, -1), 5e-324}
	ones := []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2)}
	// fill draws v under a mode: 0 plain (0, 1); 1 salted with edges; 2 values
	// around 2^-256, so products of them fall on both sides of the threshold;
	// 3 all on the threshold or just inside it, or all ones and their
	// neighbours (tip/tip and inner/inner need a side of ones to keep a
	// product there).
	fill := func(v []float64, mode int) {
		set := boundary
		if rng.Intn(2) == 0 {
			set = ones
		}
		for i := range v {
			switch {
			case mode == 1 && rng.Intn(3) == 0:
				v[i] = edges[rng.Intn(len(edges))]
			case mode == 2 && rng.Intn(4) == 0:
				v[i] = edges[rng.Intn(12)] // zeros, subnormals, ±2^-256 and neighbours
			case mode == 2:
				v[i] = rng.Float64() * 4 * tiny
			case mode == 3:
				v[i] = set[rng.Intn(len(set))]
			default:
				v[i] = rng.Float64()
			}
		}
	}
	plane := func(mode int) []float64 {
		v := make([]float64, base+cats*stride)
		fill(v, mode)
		return v
	}
	// pmat is a cats x 4 x 4 block; from mode 2 on, rows of zeros and ones
	// (in mode 3 a single one), so a side's sum stays on the scale of its
	// inputs or is exactly one of them.
	pmat := func(mode int) []float64 {
		p := make([]float64, cats*16)
		fill(p, mode%2)
		for r := 0; mode >= 2 && r < cats*4; r++ {
			for b := 0; b < 4; b++ {
				p[r*4+b] = float64(rng.Intn(2))
				if mode == 3 {
					p[r*4+b] = 0
				}
			}
			if mode == 3 {
				p[r*4+rng.Intn(4)] = 1
			}
		}
		return p
	}
	row := func() []byte {
		r := make([]byte, patterns)
		for i := range r {
			r[i] = byte(rng.Intn(codes))
		}
		return r
	}
	exps := func() []int32 {
		s := make([]int32, offset+patterns)
		for i := range s {
			s[i] = int32(rng.Intn(3))
		}
		return s
	}
	tip := func(mode int) spanEnd {
		tab := make([]float64, codes*cs)
		fill(tab, mode)
		for i := 0; mode == 2 && i < len(tab); i++ { // ones scale a tiny side exactly
			tab[i] = ones[rng.Intn(len(ones))]
		}
		return spanEnd{tip: true, row: row(), tab: tab}
	}
	inner := func(mode int) spanEnd {
		return spanEnd{v: plane(mode), sc: exps(), pm: pmat(mode)}
	}

	scaledRuns := 0
	for round := 0; round < 12; round++ {
		mode := round % 4
		cases := []struct {
			name string
			a, b spanEnd
		}{
			{"tip/tip", tip(mode), tip(mode)},
			{"tip/inner", tip(mode), inner(mode)},
			{"inner/tip", inner(mode), tip(mode)},
			{"inner/inner", inner(mode), inner(mode)},
		}
		garbage := plane(1)
		for _, cse := range cases {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250} {
				for _, poison := range []bool{false, true} {
					lo := offset + 1 + rng.Intn(3)
					run := schedule.Run{Lo: lo, Hi: lo + n}
					label := fmt.Sprintf("round %d %s n=%d poison=%v", round, cse.name, n, poison)
					var got, want spanCtx
					for _, on := range []bool{true, false} {
						small := make([]byte, patterns)
						for i := range small {
							small[i] = flagByte(poison)
						}
						c := spanCtx{
							wk:        &worker{small: small},
							partition: partition{s: 4, cats: cats, cs: cs, base: base, catStride: stride, partOffset: offset},
							a:         cse.a, b: cse.b, dst: slices.Clone(garbage), dstScale: make([]int32, offset+patterns),
						}
						planesKernel.Set(on)
						c.newviewFused4(run)
						if on {
							got = c
						} else {
							want = c
						}
					}
					if got.scaled != want.scaled {
						t.Fatalf("%s: %v scaling events, scalar %v", label, got.scaled, want.scaled)
					}
					if want.scaled > 0 {
						scaledRuns++
					}
					sameSums(t, label+" planes", got.dst, want.dst)
					if !slices.Equal(got.dstScale, want.dstScale) {
						t.Fatalf("%s: scaling exponents %v, scalar %v", label, got.dstScale, want.dstScale)
					}
					if gs, ws := got.wk.small, want.wk.small; !slices.Equal(gs, ws) {
						t.Fatalf("%s: scaling flags differ from the scalar loops'", label)
					}
				}
			}
		}
	}
	if scaledRuns == 0 {
		t.Fatal("no run rescaled a pattern: the fixture never reaches the threshold")
	}
	t.Logf("%d runs rescaled at least one pattern", scaledRuns)
}

// TestPlaneCallsTakeOnlyCheckedRuns: a plane call computes a run only when
// every CLV, flag and row index of it lies inside the slices it was handed,
// and stops before the first tip code whose table row would leave the table;
// what it declines, the scalar loop runs (and bounds-checks).
func TestPlaneCallsTakeOnlyCheckedRuns(t *testing.T) {
	if !planesKernel.On() {
		t.Skip("no AVX on this host: the plane calls take nothing")
	}
	const n, cs = 10, 4 // one category
	d, x, p := make([]float64, 4*n), make([]float64, 4*n), make([]float64, 16)
	small, row := make([]byte, n), make([]byte, n)
	tab := make([]float64, 3*cs) // rows for codes 0, 1, 2
	for j := range row {
		row[j] = byte(j % 3)
	}
	all := func(name string, d, x, p []float64, small []byte, row []byte, j0, n, want int) {
		t.Helper()
		if k := planeInner(d, x, x, p, p, small, j0, n, true); k != want {
			t.Errorf("inner/inner, %s: computed %d patterns, want %d", name, k, want)
		}
		if k := planeTipInner(d, x, tab, row, p, small, j0, n, cs, 0, true); k != want {
			t.Errorf("tip/inner, %s: computed %d patterns, want %d", name, k, want)
		}
	}
	all("fitting slices", d, x, p, small, row, 0, n, n)
	all("a middle run", d, x, p, small, row, 1, 3, 3)
	all("past the planes", d, x, p, small, row, 1, n, 0)
	all("short destination", d[:4*n-1], x, p, small, row, 0, n, 0)
	all("short source", d, x[:4*n-1], p, small, row, 0, n, 0)
	all("short flags", d, x, p, small[:n-1], row, 0, n, 0)
	all("short P", d, x, p[:15], small, row, 0, n, 0)
	all("negative start", d, x, p, small, row, -1, 2, 0)
	all("empty run", d, x, p, small, row, 0, 0, 0)
	if k := planeTipInner(d, x, tab, row[:n-1], p, small, 0, n, cs, 0, true); k != 0 {
		t.Errorf("tip/inner, short row: computed %d patterns, want 0", k)
	}
	if k := planeTipTip(d, tab, tab, row, row[:n-1], small, 0, n, cs, 0, true); k != 0 {
		t.Errorf("tip/tip, short row: computed %d patterns, want 0", k)
	}

	row[6] = 3 // no row for code 3: patterns 0..5 are computed, 6 on is the scalar loop's
	if k := planeTipInner(d, x, tab, row, p, small, 0, n, cs, 0, true); k != 6 {
		t.Errorf("tip/inner, code 3 at pattern 6: computed %d patterns, want 6", k)
	}
	if k := planeTipTip(d, tab, tab, row, row, small, 0, n, cs, 0, true); k != 6 {
		t.Errorf("tip/tip, code 3 at pattern 6: computed %d patterns, want 6", k)
	}
	// At category offset 1 the row of code 2 ends one entry past the table.
	if k := planeTipInner(d, x, tab, row, p, small, 0, n, cs, 1, true); k != 2 {
		t.Errorf("tip/inner at category offset 1: computed %d patterns, want 2", k)
	}
	if k := planeTipTip(d, tab, tab, row, row, small, 0, n, cs, 1, true); k != 2 {
		t.Errorf("tip/tip at category offset 1: computed %d patterns, want 2", k)
	}
}

// scalePassReference is newviewFused4's closing pass as every run took it
// before runs became one copy or add and an IndexByte scan: each pattern of
// the run in turn, its exponents summed, a flagged one rescaled.
func (c *spanCtx) scalePassReference(small []byte, run schedule.Run) {
	for i := run.Lo; i < run.Hi; i++ {
		j := i - c.partOffset
		sc := int32(0)
		if !c.a.tip {
			sc += c.a.sc[i]
		}
		if !c.b.tip {
			sc += c.b.sc[i]
		}
		if small[j] != 0 {
			off := c.base + j*c.s
			for cat := 0; cat < c.cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+4]
				d[0] *= twoTo256
				d[1] *= twoTo256
				d[2] *= twoTo256
				d[3] *= twoTo256
			}
			sc++
			c.scaled++
		}
		c.dstScale[i] = sc
	}
}

// TestScalePassMatchesLoop holds the fused newview's scaling pass (one copy
// or add, then only the flagged patterns) to the loop it replaced, for every
// pair of tip and inner ends, with patterns forced small: none, one, the
// run's first and last, a fifth of them at random, and all. The CLV bits
// (entries outside the run included), every scaling exponent and the
// scaling-event count must all be the loop's.
func TestScalePassMatchesLoop(t *testing.T) {
	const (
		offset   = 5
		patterns = 300
		cats     = 3
		stride   = patterns*4 + 4
		base     = 4
	)
	rng := rand.New(rand.NewSource(67))
	exps := func() []int32 {
		s := make([]int32, offset+patterns)
		for i := range s {
			s[i] = int32(rng.Intn(5)) - 1
		}
		return s
	}
	tip, forced := spanEnd{tip: true}, 0
	for round := 0; round < 30; round++ {
		inner := func() spanEnd { return spanEnd{sc: exps()} }
		for _, ends := range [][2]spanEnd{{tip, tip}, {tip, inner()}, {inner(), tip}, {inner(), inner()}} {
			for range 3 {
				lo := offset + rng.Intn(10)
				n := []int{0, 1, 2, 7, 64, 97}[rng.Intn(6)]
				hi := min(lo+n, offset+patterns)
				run := schedule.Run{Lo: lo, Hi: hi}
				small := make([]byte, patterns)
				switch round % 5 {
				case 1:
					small[lo-offset+rng.Intn(max(1, hi-lo))] = 1
				case 2:
					small[lo-offset] = 1
					small[max(lo, hi-1)-offset] = 1
				case 3:
					for j := range small {
						small[j] = flagByte(rng.Intn(5) == 0)
					}
				case 4:
					for j := range small {
						small[j] = 1
					}
				}
				dst := make([]float64, base+cats*stride)
				for i := range dst {
					dst[i] = rng.Float64() * minLikelihood
				}
				dstScale := exps()
				var got, want spanCtx
				for _, ref := range []bool{false, true} {
					c := spanCtx{partition: partition{s: 4, cats: cats, base: base, catStride: stride, partOffset: offset},
						a: ends[0], b: ends[1], dst: slices.Clone(dst), dstScale: slices.Clone(dstScale)}
					if ref {
						c.scalePassReference(small, run)
						want = c
					} else {
						c.scalePass(small, run)
						got = c
					}
				}
				label := fmt.Sprintf("round %d tip=%v/%v run [%d, %d)", round, ends[0].tip, ends[1].tip, lo, hi)
				if got.scaled != want.scaled {
					t.Fatalf("%s: %v scaling events, loop %v", label, got.scaled, want.scaled)
				}
				forced += int(want.scaled)
				sameSums(t, label+" planes", got.dst, want.dst)
				if !slices.Equal(got.dstScale, want.dstScale) {
					t.Fatalf("%s: scaling exponents differ from the loop's", label)
				}
			}
		}
	}
	if forced == 0 {
		t.Fatal("no pattern was rescaled: the fixture forces nothing")
	}
	t.Logf("%d forced rescales", forced)
}
