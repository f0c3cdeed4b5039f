package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phylo/internal/model"
	"phylo/internal/schedule"
)

// The two realisations of the fused newview's plane loops: the AVX kernels
// (fused4_amd64.s) where the host has them, the scalar loops of
// newviewFused4 everywhere. TestFusedPlanesMatchScalar holds the first to the
// second bit for bit; forEachPlanes runs the backend acceptance tests under
// both, so the scalar loops stay tested on a host that would never run them.
// The same two arms switch the span set-up's 4-state PMatrices between its
// AVX2 kernel and the scalar pmatrix4 (internal/model holds those to each
// other bit for bit), and every 20-state P application and sumtable
// projection between model.ApplyCols' AVX kernel and its scalar loop
// (TestApplyColsBitIdentity).

// forEachPlanes runs f as one subtest per realisation this host has, with
// vectorPlanes, model.VectorPMatrix and model.VectorApplyCols set to it: "avx"
// (skipped where the plane kernels cannot run; the P kernel runs where the
// host has AVX2) and "scalar".
func forEachPlanes(t *testing.T, f func(t *testing.T)) {
	host, hostPM, hostCols := vectorPlanes, model.VectorPMatrix(), model.VectorApplyCols()
	t.Cleanup(func() {
		vectorPlanes = host
		model.SetVectorPMatrix(hostPM)
		model.SetVectorApplyCols(hostCols)
	})
	for _, arm := range []struct {
		name string
		on   bool
	}{{"avx", true}, {"scalar", false}} {
		t.Run(arm.name, func(t *testing.T) {
			if arm.on && !host {
				t.Skip("no AVX on this host: the scalar loops are its only realisation")
			}
			vectorPlanes = arm.on
			model.SetVectorPMatrix(arm.on)
			model.SetVectorApplyCols(arm.on)
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
// the scaling flags, the processed count and the scaling-event count. It
// covers tip/tip, tip/inner with the tip at either end and inner/inner; steps
// 1, 2 and 3; run lengths 0…9 and 250; three categories (the first stores
// the flag, later ones and into it) over a flag array poisoned true and
// poisoned false; and inputs from plain (0, 1) draws through planes salted
// with planeValues to planes of values around 2^-256 and on it (so whole
// patterns rescale, and some stop exactly at the threshold).
func TestFusedPlanesMatchScalar(t *testing.T) {
	if !vectorPlanes {
		t.Skip("no AVX on this host: the scalar loops are its only realisation")
	}
	host := vectorPlanes
	t.Cleanup(func() { vectorPlanes = host })
	const (
		offset   = 5   // the partition's first global pattern
		patterns = 760 // enough for 250 patterns at step 3
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
			for _, step := range []int{1, 2, 3} {
				for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250} {
					for _, poison := range []bool{false, true} {
						lo := offset + 1 + rng.Intn(3)
						hi := lo + n*step
						if n > 0 && rng.Intn(2) == 0 {
							hi = lo + (n-1)*step + 1 // a run that ends off the stride
						}
						run := schedule.Run{Lo: lo, Hi: hi, Step: step}
						label := fmt.Sprintf("round %d %s step=%d n=%d poison=%v", round, cse.name, step, n, poison)
						var got, want spanCtx
						var gotN, wantN int
						for _, on := range []bool{true, false} {
							small := make([]bool, patterns)
							for i := range small {
								small[i] = poison
							}
							c := spanCtx{
								e: &Engine{sessionBuffers: &sessionBuffers{smallScratch: [][]bool{small}}},
								s: 4, cats: cats, cs: cs, base: base, patStride: 4, catStride: stride, partOffset: offset,
								a: cse.a, b: cse.b, dst: slices.Clone(garbage), dstScale: make([]int32, offset+patterns),
							}
							vectorPlanes = on
							k := c.newviewFused4(run)
							if on {
								got, gotN = c, k
							} else {
								want, wantN = c, k
							}
						}
						if gotN != wantN || gotN != n {
							t.Fatalf("%s: processed %d patterns, scalar %d, run has %d", label, gotN, wantN, n)
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
						if gs, ws := got.e.smallScratch[0], want.e.smallScratch[0]; !slices.Equal(gs, ws) {
							t.Fatalf("%s: scaling flags differ from the scalar loops'", label)
						}
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
	if !vectorPlanes {
		t.Skip("no AVX on this host: the plane calls take nothing")
	}
	const n, cs = 10, 4 // one category
	d, x, p := make([]float64, 4*n), make([]float64, 4*n), make([]float64, 16)
	small, row := make([]bool, n), make([]byte, n)
	tab := make([]float64, 3*cs) // rows for codes 0, 1, 2
	for j := range row {
		row[j] = byte(j % 3)
	}
	all := func(name string, d, x, p []float64, small []bool, row []byte, j0, n, step, want int) {
		t.Helper()
		if k := planeInner(d, x, x, p, p, small, j0, n, step, true); k != want {
			t.Errorf("inner/inner, %s: computed %d patterns, want %d", name, k, want)
		}
		if k := planeTipInner(d, x, tab, row, p, small, j0, n, step, cs, 0, true); k != want {
			t.Errorf("tip/inner, %s: computed %d patterns, want %d", name, k, want)
		}
	}
	all("fitting slices", d, x, p, small, row, 0, n, 1, n)
	all("strided", d, x, p, small, row, 1, 3, 4, 3)
	all("past the planes", d, x, p, small, row, 1, n, 1, 0)
	all("short destination", d[:4*n-1], x, p, small, row, 0, n, 1, 0)
	all("short source", d, x[:4*n-1], p, small, row, 0, n, 1, 0)
	all("short flags", d, x, p, small[:n-1], row, 0, n, 1, 0)
	all("short P", d, x, p[:15], small, row, 0, n, 1, 0)
	all("negative start", d, x, p, small, row, -1, 2, 1, 0)
	all("zero step", d, x, p, small, row, 0, 2, 0, 0)
	all("empty run", d, x, p, small, row, 0, 0, 1, 0)
	if k := planeTipInner(d, x, tab, row[:n-1], p, small, 0, n, 1, cs, 0, true); k != 0 {
		t.Errorf("tip/inner, short row: computed %d patterns, want 0", k)
	}
	if k := planeTipTip(d, tab, tab, row, row[:n-1], small, 0, n, 1, cs, 0, true); k != 0 {
		t.Errorf("tip/tip, short row: computed %d patterns, want 0", k)
	}

	row[6] = 3 // no row for code 3: patterns 0..5 are computed, 6 on is the scalar loop's
	if k := planeTipInner(d, x, tab, row, p, small, 0, n, 1, cs, 0, true); k != 6 {
		t.Errorf("tip/inner, code 3 at pattern 6: computed %d patterns, want 6", k)
	}
	if k := planeTipTip(d, tab, tab, row, row, small, 0, n, 1, cs, 0, true); k != 6 {
		t.Errorf("tip/tip, code 3 at pattern 6: computed %d patterns, want 6", k)
	}
	// At category offset 1 the row of code 2 ends one entry past the table.
	if k := planeTipInner(d, x, tab, row, p, small, 0, n, 1, cs, 1, true); k != 2 {
		t.Errorf("tip/inner at category offset 1: computed %d patterns, want 2", k)
	}
	if k := planeTipTip(d, tab, tab, row, row, small, 0, n, 1, cs, 1, true); k != 2 {
		t.Errorf("tip/tip at category offset 1: computed %d patterns, want 2", k)
	}
}
