package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// The generic bodies' inner loops as they stood before they were blocked four
// rows (newview, evaluate, sumtable) and two patterns (derivatives) at a time,
// moved here verbatim but for where they read a P block's entry (pAt) and
// V^-1 (through its transpose): one dependent accumulator per output. They are
// what TestGenericBodiesMatchReference, TestApplyRowsBitIdentity,
// TestApplyColsBitIdentity and TestDerivativePairsBitIdentity hold the
// restructured loops to, bit for bit.

// applyRowsReference is the one-row loop applyRows blocks: dst[k] = sum_a
// m[k*len(x)+a] * x[a], a ascending from +0.
func applyRowsReference(dst, m, x []float64) {
	s := len(x)
	for k := range dst {
		sum := 0.0
		for a := 0; a < s; a++ {
			sum += m[k*s+a] * x[a]
		}
		dst[k] = sum
	}
}

// pAt is entry (a, b) of one category's P block p in the layout
// model.PMatrices writes it: row-major at four states, column-major wider.
func pAt(p []float64, s, a, b int) float64 {
	if s == 4 {
		return p[a*s+b]
	}
	return p[b*s+a]
}

func (c *spanCtx) newviewReference(run schedule.Run) int {
	s, cs, cats := c.s, c.cs, c.cats
	ss := s * s
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		switch {
		case c.a.tab != nil && c.b.tab != nil:
			// Both children specialized tips: the table rows already hold the
			// P applications; the pattern reduces to their entrywise product.
			tq := c.a.tab[int(c.a.row[j])*cs : int(c.a.row[j])*cs+cs]
			tr := c.b.tab[int(c.b.row[j])*cs : int(c.b.row[j])*cs+cs]
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+s]
				t1 := tq[cat*s : cat*s+s]
				t2 := tr[cat*s : cat*s+s]
				for a := 0; a < s; a++ {
					d[a] = t1[a] * t2[a]
				}
			}
		case c.a.tab != nil, c.b.tab != nil:
			// Exactly one specialized tip child (a tip the table decision
			// skipped never coexists with a built sibling table — ensureTables
			// builds both or neither); the inner child pays the P application.
			tab, row, xv, pm := c.a.tab, c.a.row, c.b.v, c.b.pm
			if c.b.tab != nil {
				tab, row, xv, pm = c.b.tab, c.b.row, c.a.v, c.a.pm
			}
			tq := tab[int(row[j])*cs : int(row[j])*cs+cs]
			for cat := 0; cat < cats; cat++ {
				p := pm[cat*ss : (cat+1)*ss]
				co := off + cat*c.catStride
				cr := xv[co : co+s]
				t := tq[cat*s : cat*s+s]
				d := c.dst[co : co+s]
				for a := 0; a < s; a++ {
					sr := 0.0
					for b := 0; b < s; b++ {
						sr += pAt(p, s, a, b) * cr[b]
					}
					d[a] = t[a] * sr
				}
			}
		default:
			var tvq, tvr []float64
			if c.a.tip {
				tvq = alignment.TipVector(c.dtype, c.a.row[j])
			}
			if c.b.tip {
				tvr = alignment.TipVector(c.dtype, c.b.row[j])
			}
			for cat := 0; cat < cats; cat++ {
				pq := c.a.pm[cat*ss : (cat+1)*ss]
				pr := c.b.pm[cat*ss : (cat+1)*ss]
				co := off + cat*c.catStride
				cq := tvq
				if !c.a.tip {
					cq = c.a.v[co : co+s]
				}
				cr := tvr
				if !c.b.tip {
					cr = c.b.v[co : co+s]
				}
				d := c.dst[co : co+s]
				for a := 0; a < s; a++ {
					sq, sr := 0.0, 0.0
					for b := 0; b < s; b++ {
						sq += pAt(pq, s, a, b) * cq[b]
						sr += pAt(pr, s, a, b) * cr[b]
					}
					d[a] = sq * sr
				}
			}
		}
		c.finishPattern(i, off)
		count++
	}
	return count
}

func (c *spanCtx) patternLiReference(j, off int) float64 {
	s, cats := c.s, c.cats
	li := 0.0
	var tvl, tvr []float64
	if c.a.tip {
		tvl = alignment.TipVector(c.dtype, c.a.row[j])
	}
	if c.b.tab != nil {
		t := c.b.tab[int(c.b.row[j])*c.cs:]
		for cat := 0; cat < cats; cat++ {
			cl := tvl
			if !c.a.tip {
				co := off + cat*c.catStride
				cl = c.a.v[co : co+s]
			}
			tc := t[cat*s : (cat+1)*s]
			for a := 0; a < s; a++ {
				li += c.freqs[a] * cl[a] * tc[a]
			}
		}
		return li
	}
	if c.b.tip {
		tvr = alignment.TipVector(c.dtype, c.b.row[j])
	}
	ss := s * s
	for cat := 0; cat < cats; cat++ {
		pc := c.b.pm[cat*ss : (cat+1)*ss]
		co := off + cat*c.catStride
		cl := tvl
		if !c.a.tip {
			cl = c.a.v[co : co+s]
		}
		cr := tvr
		if !c.b.tip {
			cr = c.b.v[co : co+s]
		}
		for a := 0; a < s; a++ {
			t := 0.0
			for b := 0; b < s; b++ {
				t += pAt(pc, s, a, b) * cr[b]
			}
			li += c.freqs[a] * cl[a] * t
		}
	}
	return li
}

func (c *spanCtx) sumtableReference(run schedule.Run) int {
	s := c.s
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		soff := c.sbase + j*c.cs
		var xl, xr []float64
		var lRow, rRow []float64
		if c.a.tab != nil {
			code := int(c.a.row[j])
			lRow = c.a.tab[code*s : (code+1)*s]
		} else if c.a.tip {
			xl = alignment.TipVector(c.dtype, c.a.row[j])
		}
		if c.b.tab != nil {
			code := int(c.b.row[j])
			rRow = c.b.tab[code*s : (code+1)*s]
		} else if c.b.tip {
			xr = alignment.TipVector(c.dtype, c.b.row[j])
		}
		for cat := 0; cat < c.cats; cat++ {
			co := off + cat*c.catStride
			var cl, cr []float64
			if lRow == nil {
				cl = xl
				if !c.a.tip {
					cl = c.a.v[co : co+s]
				}
			}
			if rRow == nil {
				cr = xr
				if !c.b.tip {
					cr = c.b.v[co : co+s]
				}
			}
			dst := c.sum[soff+cat*s : soff+(cat+1)*s]
			for k := 0; k < s; k++ {
				var lproj, rproj float64
				if lRow != nil {
					lproj = lRow[k]
				} else {
					for a := 0; a < s; a++ {
						lproj += c.freqs[a] * cl[a] * c.ev[a*s+k]
					}
				}
				if rRow != nil {
					rproj = rRow[k]
				} else {
					for a := 0; a < s; a++ {
						rproj += c.eviT[a*s+k] * cr[a]
					}
				}
				dst[k] = lproj * rproj * c.invCats
			}
		}
		count++
	}
	return count
}

func (c *spanCtx) derivativeReference(run schedule.Run, out []float64) int {
	cs := c.cs
	R := c.R
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		soff := c.sbase + j*cs
		l, l1, l2 := 0.0, 0.0, 0.0
		for k := 0; k < cs; k++ {
			a := c.sum[soff+k] * c.eTab[k]
			l += a
			l1 += a * c.g1Tab[k]
			l2 += a * c.g2Tab[k]
		}
		// The cs-length dot products above already ran, so the pattern is
		// charged whether or not the guard below accepts its contribution;
		// skipped patterns must not undercount the region's performed work.
		count++
		if l < 1e-300 {
			// Scaled likelihood vanished; the pattern cannot inform this
			// branch numerically under any replicate. Skip it (RAxML guards
			// identically).
			continue
		}
		inv := 1 / l
		r1 := l1 * inv
		curv := l2*inv - r1*r1
		wj := c.lw[j*R : (j+1)*R]
		for r := 0; r < R; r++ {
			out[2*r] += wj[r] * r1
			out[2*r+1] += wj[r] * curv
		}
	}
	return count
}

// sameSums is sameBits for sums a NaN may run through: once both are NaN the
// payload is the add instruction's operand order, not the sum's term order.
func sameSums(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: entry %d is %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestApplyRowsBitIdentity: every row length 1…23 (all four tail lengths),
// row counts other than s, over entries that expose a dropped, reordered or
// doubly counted term — signed zeros, subnormals, ones, infinities, NaN.
func TestApplyRowsBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	fill := func(v []float64, edges int) {
		for i := range v {
			if v[i] = rng.NormFloat64(); rng.Intn(8) < edges {
				v[i] = edge[rng.Intn(len(edge))]
			}
		}
	}
	for s := 1; s <= 23; s++ {
		for _, rows := range []int{1, 2, 3, 4, 5, 7, s, s + 1, 4 * s} {
			for round := 0; round < 12; round++ {
				m, x := make([]float64, rows*s), make([]float64, s)
				fill(m, round%4) // round%4 == 0: finite throughout
				fill(x, round%4)
				got, want := make([]float64, rows), make([]float64, rows)
				applyRows(got, m, x)
				applyRowsReference(want, m, x)
				sameSums(t, fmt.Sprintf("s=%d rows=%d round %d", s, rows, round), got, want)
			}
		}
	}
}

// TestApplyColsBitIdentity: model.ApplyCols, with its AVX kernel (where the
// host runs it) and with its scalar loop, against the one-row loop over the
// transposed block, NaN-aware, in 200 000 trials: six in eight the 20 x 20
// shape of the protein P applications, one the 4 x 4 of the DNA sumtable, one
// a row length 1…23 against output counts of whole quartets and not; entries
// plain normal draws or salted with signed zeros, subnormals, ±2^-256, ±1,
// infinities and NaN.
func TestApplyColsBitIdentity(t *testing.T) {
	host := model.SetVectorApplyCols(true)
	t.Cleanup(func() { model.SetVectorApplyCols(host) })
	rng := rand.New(rand.NewSource(47))
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, minLikelihood, -minLikelihood,
		1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	const maxS, maxN, window = 23, 40, 1 << 15
	// A trial copies its entries from a random window of one of four pools,
	// salted with edge values in 0, 1, 2 or 3 entries of eight: drawing every
	// entry afresh would cost the sweep most of its time.
	var pools [4][]float64
	for edges := range pools {
		pools[edges] = make([]float64, window+maxN*maxS)
		for i := range pools[edges] {
			if pools[edges][i] = rng.NormFloat64(); rng.Intn(8) < edges {
				pools[edges][i] = edge[rng.Intn(len(edge))]
			}
		}
	}
	fill := func(v []float64, edges int) { copy(v, pools[edges][rng.Intn(window):]) }
	m, mT, x := make([]float64, maxN*maxS), make([]float64, maxN*maxS), make([]float64, maxS)
	got, want := make([]float64, maxN), make([]float64, maxN)
	kernel := 0
	for trial := 0; trial < 200000; trial++ {
		s, n := 20, 20
		switch trial % 8 {
		case 0:
			s, n = 4, 4
		case 1:
			s, n = 1+rng.Intn(maxS), []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 20, 24, 40}[rng.Intn(12)]
		}
		m, mT, x, got, want := m[:n*s], mT[:n*s], x[:s], got[:n], want[:n]
		fill(m, trial%4) // trial%4 == 0: finite throughout
		fill(x, trial%4)
		for k := 0; k < n; k++ {
			for a := 0; a < s; a++ {
				mT[a*n+k] = m[k*s+a]
			}
		}
		applyRowsReference(want, m, x)
		for _, on := range []bool{true, false} {
			model.SetVectorApplyCols(on)
			if model.VectorApplyCols() && n%4 == 0 {
				kernel++
			}
			model.ApplyCols(got, mT, x)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
					sameSums(t, fmt.Sprintf("trial %d kernel %v s=%d n=%d", trial, model.VectorApplyCols(), s, n), got, want)
				}
			}
		}
	}
	t.Logf("kernel on this host: %v; %d of 400000 calls ran it", host, kernel)
}

// TestDerivativePairsBitIdentity: the paired loop against the single-pattern
// body over every run length 0…9 (odd tails included), strided runs, one and
// three lanes, with the vanished-likelihood guard tripping on the first, the
// second, both and neither pattern of a pair: d1, d2 and the charged count.
func TestDerivativePairsBitIdentity(t *testing.T) {
	const cs, offset, patterns = 80, 7, 40
	rng := rand.New(rand.NewSource(43))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for _, R := range []int{1, 3} {
		for _, step := range []int{1, 3} {
			for n := 0; n <= 9; n++ {
				for vanish := 0; vanish < 4; vanish++ {
					c := spanCtx{cs: cs, partOffset: offset, sbase: 11, R: R, sum: vec(11 + patterns*cs), lw: vec(patterns * R),
						eTab: vec(cs), g1Tab: vec(cs), g2Tab: vec(cs)}
					run := schedule.Run{Lo: offset + 2, Hi: offset + 2 + n*step, Step: step}
					for k, i := 0, run.Lo; i < run.Hi; k, i = k+1, i+step {
						if vanish>>(k%2)&1 == 1 {
							clear(c.sum[c.sbase+(i-offset)*cs:][:cs])
						}
					}
					got, want := vec(2*R), make([]float64, 2*R)
					copy(want, got)
					label := fmt.Sprintf("R=%d step=%d n=%d vanish=%02b", R, step, n, vanish)
					if g, w := c.derivativeGeneric(run, got), c.derivativeReference(run, want); g != w || g != n {
						t.Fatalf("%s: charged %d patterns, reference %d, run has %d", label, g, w, n)
					}
					sameBits(t, label, got, want)
				}
			}
		}
	}
}

// TestGenericBodiesMatchReference sweeps the generic bodies over a DNA + AA
// dataset (s = 4 and 20) under both CLV layouts, with and without tip tables:
// all three newview cases, both evaluate arms and every sumtable end
// combination a tree has, each against the pre-change loop above.
func TestGenericBodiesMatchReference(t *testing.T) {
	d, models := stealFixture(t, 4, 57)
	for _, backend := range []Backend{BackendGeneric, BackendFused} { // pattern-major, cat-major
		for _, specialize := range []bool{true, false} {
			tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := newEngineOn(backend, d, tr, []*model.Model{models[0].Clone(), models[1].Clone()}, parallel.NewSequential(), Options{Specialize: specialize})
			if err != nil {
				t.Fatal(err)
			}
			for ip, part := range d.Parts {
				label := fmt.Sprintf("%v specialize=%v %s", backend, specialize, part.Name)
				run := schedule.Run{Lo: part.Offset, Hi: part.Offset + part.PatternCount, Step: 1}
				lo, n := eng.layout.Base(ip), part.PatternCount*eng.numCats*part.Type.States()
				var ctx parallel.WorkerCtx
				var c spanCtx

				seen := map[string]bool{}
				steps := tree.ComputeTraversal(tr.Tips[0].Back, false)
				for si := range steps {
					c.bind(eng, &region{kind: parallel.RegionNewview, steps: steps}, si, ip, 0, &ctx)
					c.ensureTables(part.PatternCount)
					seen[fmt.Sprint(c.a.tip && c.b.tip, c.a.tip || c.b.tip)] = true
					ref := c
					ref.dst, ref.dstScale = make([]float64, len(c.dst)), make([]int32, len(c.dstScale))
					c.newviewGeneric(run)
					ref.newviewReference(run)
					sameBits(t, fmt.Sprintf("%s newview step %d", label, si), c.dst[lo:lo+n], ref.dst[lo:lo+n])
				}
				if len(seen) != 3 {
					t.Fatalf("%s: newview cases %v, want tip/tip, tip/inner and inner/inner", label, seen)
				}

				seen = map[string]bool{}
				for _, br := range tr.Branches() {
					for _, p := range []*tree.Node{br, br.Back} {
						eng.TraverseRoot(p, false, nil)
						eng.PrepareSumtable(p, nil)
						c.bind(eng, &region{kind: parallel.RegionEvaluate, p: p}, 0, ip, 0, &ctx)
						c.ensureTables(part.PatternCount)
						seen[fmt.Sprint("evaluate ", c.a.tip, c.b.tip, c.b.tab != nil)] = true
						for j := 0; j < part.PatternCount; j++ {
							got, want := c.patternLi(j, c.base+j*c.patStride), c.patternLiReference(j, c.base+j*c.patStride)
							sameBits(t, fmt.Sprintf("%s evaluate pattern %d", label, j), []float64{got}, []float64{want})
						}

						c.bind(eng, &region{kind: parallel.RegionSumTable, p: p}, 0, ip, 0, &ctx)
						c.ensureTables(part.PatternCount)
						seen[fmt.Sprint("sumtable ", c.a.tip, c.b.tip, c.a.tab != nil, c.b.tab != nil)] = true
						ref := c
						ref.sum = make([]float64, len(c.sum))
						c.sumtableGeneric(run)
						ref.sumtableReference(run)
						sameBits(t, label+" sumtable", c.sum[c.sbase:c.sbase+n], ref.sum[c.sbase:c.sbase+n])
					}
				}
				if len(seen) != 6 { // inner/inner, and a tip at either end: its table built iff specialize
					t.Fatalf("%s: evaluate and sumtable end combinations %v", label, seen)
				}
			}
		}
	}
}
