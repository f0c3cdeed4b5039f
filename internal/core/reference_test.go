package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/cpufeat"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// The generic bodies' inner loops as they stood before they were blocked four
// rows (newview, evaluate, sumtable) and two patterns, then four lanes
// (derivatives) at a time, moved here verbatim but for where they read a P
// block's entry (pAt) and V^-1 (through its transpose): one dependent
// accumulator per output. They are what TestGenericBodiesMatchReference,
// TestApplyRowsBitIdentity, TestApplyColsBitIdentity,
// TestDerivativePairsBitIdentity and TestDerivativeKernelBitIdentity hold the
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

func (c *spanCtx) newviewReference(run schedule.Run) {
	s, cs, cats := c.s, c.cs, c.cats
	ss := s * s
	for i := run.Lo; i < run.Hi; i++ {
		j := i - c.partOffset
		off := c.base + j*c.s
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
	}
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

// siteReference is the per-pattern site tail the block pass (SiteLogs)
// replaced: one raw category-summed likelihood normalized, clamped, logged
// and shifted by its pattern's scaling exponent.
func siteReference(rawLi float64, sc int32, invCats float64) float64 {
	li := rawLi * invCats
	if li <= 0 || math.IsNaN(li) {
		li = math.SmallestNonzeroFloat64
	}
	return math.Log(li) + float64(sc)*logMinLik
}

// siteReference is the span binding's per-pattern site of global pattern i:
// the exponents of both branch ends summed, then the tail above.
func (c *spanCtx) siteReference(i int, rawLi float64) float64 {
	sc := int32(0)
	if !c.a.tip {
		sc += c.a.sc[i]
	}
	if !c.b.tip {
		sc += c.b.sc[i]
	}
	return siteReference(rawLi, sc, c.invCats)
}

func (c *spanCtx) sumtableReference(run schedule.Run) {
	s := c.s
	for i := run.Lo; i < run.Hi; i++ {
		j := i - c.partOffset
		off := c.base + j*c.s
		soff := c.sumBase + j*c.cs
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
	}
}

func (c *spanCtx) derivativeReference(run schedule.Run, out []float64) {
	cs := c.cs
	R := c.R
	for i := run.Lo; i < run.Hi; i++ {
		j := i - c.partOffset
		soff := c.sumBase + j*cs
		l, l1, l2 := 0.0, 0.0, 0.0
		for k := 0; k < cs; k++ {
			a := c.sum[soff+k] * c.eTab[k]
			l += a
			l1 += a * c.g1Tab[k]
			l2 += a * c.g2Tab[k]
		}
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
			out[r] += wj[r] * r1
			out[R+r] += wj[r] * curv
		}
	}
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
	host := model.ApplyColsKernel.Set(true)
	t.Cleanup(func() { model.ApplyColsKernel.Set(host) })
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
			model.ApplyColsKernel.Set(on)
			if model.ApplyColsKernel.On() && n%4 == 0 {
				kernel++
			}
			model.ApplyCols(got, mT, x)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
					sameSums(t, fmt.Sprintf("trial %d kernel %v s=%d n=%d", trial, model.ApplyColsKernel.On(), s, n), got, want)
				}
			}
		}
	}
	t.Logf("kernel on this host: %v; %d of 400000 calls ran it", host, kernel)
}

// TestDerivativePairsBitIdentity: the paired loop against the single-pattern
// body over every run length 0…9 (odd tails included), one and
// three lanes, with the vanished-likelihood guard tripping on the first, the
// second, both and neither pattern of a pair: d1 and d2.
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
		for n := 0; n <= 9; n++ {
			for vanish := 0; vanish < 4; vanish++ {
				c := spanCtx{partition: partition{cs: cs, partOffset: offset, sumBase: 11}, R: R, sum: vec(11 + patterns*cs), lw: vec(patterns * R),
					eTab: vec(cs), g1Tab: vec(cs), g2Tab: vec(cs)}
				run := schedule.Run{Lo: offset + 2, Hi: offset + 2 + n}
				for k, i := 0, run.Lo; i < run.Hi; k, i = k+1, i+1 {
					if vanish>>(k%2)&1 == 1 {
						clear(c.sum[c.sumBase+(i-offset)*cs:][:cs])
					}
				}
				got, want := vec(2*R), make([]float64, 2*R)
				copy(want, got)
				label := fmt.Sprintf("R=%d n=%d vanish=%02b", R, n, vanish)
				c.derivativeGeneric(run, got)
				c.derivativeReference(run, want)
				sameBits(t, label, got, want)
			}
		}
	}
}

// TestDerivativeKernelBitIdentity: derivativeGeneric with its quartet kernel
// (where the host runs it) against the paired loop alone (the kernel off) and
// the per-pattern reference, at cs = 4, 16, 20 and 80, every run length 1…11
// (no whole quartet, one, two with and without a tail) and lengths past one
// kernel call's block, one, three and a hundred lanes. Rows hold
// ±0, subnormals, ones and values near 2^±500 at random; some patterns' rows
// vanish (the l < 1e-300 guard) and, in every other run, some carry a NaN or
// an infinity. d1 and d2 must agree; a NaN only as a NaN
// (sameSums).
func TestDerivativeKernelBitIdentity(t *testing.T) {
	host := DerivativeKernel.Set(true)
	t.Cleanup(func() { DerivativeKernel.Set(host) })
	t.Logf("kernel on: %v", DerivativeKernel.On())
	rng := rand.New(rand.NewSource(34))
	entries := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, 1, -1, 0x1p-500, 0x1p500, -0x1p500}
	entry := func() float64 {
		if rng.Intn(3) == 0 {
			return entries[rng.Intn(len(entries))]
		}
		return rng.Float64()
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = entry()
		}
		return v
	}
	const offset = 5
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 63, 64, 65, 71, 131}
	runs := 0
	for _, cs := range []int{4, 16, 20, 80} {
		for _, R := range []int{1, 3, 100} {
			for ni, n := range lengths {
				special := ni%2 == 1 // NaN and infinite rows in every other run, so most sums stay finite
				patterns := 3 + n
				c := spanCtx{partition: partition{cs: cs, partOffset: offset, sumBase: 9}, R: R, sum: vec(9 + patterns*cs), lw: vec(patterns * R),
					eTab: vec(cs), g1Tab: vec(cs), g2Tab: vec(cs), sums: vec(12 * derivBlock)}
				for j := 0; j < patterns; j++ {
					row := c.sum[c.sumBase+j*cs:][:cs]
					switch rng.Intn(12) {
					case 0:
						clear(row)
					case 1:
						if special {
							row[rng.Intn(cs)] = math.NaN()
						}
					case 2:
						if special {
							row[rng.Intn(cs)] = math.Inf(2*rng.Intn(2) - 1)
						}
					}
				}
				run := schedule.Run{Lo: offset + 2, Hi: offset + 2 + n}
				label := fmt.Sprintf("cs=%d R=%d n=%d", cs, R, n)
				kernel, paired, ref := vec(2*R), make([]float64, 2*R), make([]float64, 2*R)
				copy(paired, kernel)
				copy(ref, kernel)
				c.derivativeGeneric(run, kernel)
				was := DerivativeKernel.Set(false)
				c.derivativeGeneric(run, paired)
				DerivativeKernel.Set(was)
				c.derivativeReference(run, ref)
				sameSums(t, label+", kernel against the paired loop", kernel, paired)
				sameSums(t, label+", kernel against the reference", kernel, ref)
				runs++
			}
		}
	}
	t.Logf("%d runs compared", runs)
}

// TestSumtableKernelBitIdentity: sumtableGeneric with its kernel (where the
// host runs it) against its scalar loop alone (the kernel off) and the
// per-pattern reference, at s = 4 and 20, one, three and four categories
// (1/3, unlike 1 and 1/4, rounds), every pairing of an inner end, a tip end
// without a table (Specialize off) and a tip end with its projection table
// on either side. CLV, frequency and eigenvector
// entries are signed; a third of the patterns' CLVs, and some eigenvector
// entries, sit near 2^-256, and every ninth pattern's near 2^-515, so an
// inner/inner product is subnormal. Planes and rows are unaligned.
func TestSumtableKernelBitIdentity(t *testing.T) {
	if !slices.Contains(cpufeat.Kernels(), SumtableKernel) {
		t.Fatal("SumtableKernel is not listed by cpufeat.Kernels(): a scalar arm would leave it on")
	}
	host := SumtableKernel.Set(true)
	t.Cleanup(func() { SumtableKernel.Set(host) })
	t.Logf("kernel on: %v", SumtableKernel.On())
	rng := rand.New(rand.NewSource(45))
	signed := func(n int, tiny float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
			if rng.Float64() < tiny {
				v[i] *= 0x1p-256
			}
		}
		return v
	}
	const n, offset = 17, 3
	runs := 0
	for _, dt := range []alignment.DataType{alignment.DNA, alignment.AA} {
		s := dt.States()
		for _, cats := range []int{1, 3, 4} {
			plane := n*s + 3
			c := spanCtx{partition: partition{s: s, cats: cats, cs: cats * s, base: 5, catStride: plane, sumBase: 7,
				partOffset: offset, dtype: dt, invCats: 1 / float64(cats)}}
			c.freqs, c.ev, c.eviT = signed(s, 0), signed(s*s, 0.1), signed(s*s, 0.1)
			c.fl, c.tmp = make([]float64, s), make([]float64, s)
			// Both ends' CLVs and tip rows, some patterns scaled down.
			clv, codes := [2][]float64{}, [2][]byte{}
			for e := range clv {
				clv[e] = signed(c.base+cats*plane, 0)
				codes[e] = make([]byte, n)
				for j := range codes[e] {
					codes[e][j] = byte(rng.Intn(alignment.NumCodes(dt)))
					scale := 1.0
					switch {
					case j%9 == 0:
						scale = 0x1p-515
					case j%3 == 0:
						scale = 0x1p-256
					}
					for cat := 0; cat < cats; cat++ {
						v := clv[e][c.base+cat*plane+j*s:][:s]
						for a := range v {
							v[a] *= scale
						}
					}
				}
			}
			every := make([]byte, alignment.NumCodes(dt)) // a table row for every code
			for code := range every {
				every[code] = byte(code)
			}
			ends := []string{"inner", "tip", "table"}
			bind := func(e int, kind string) spanEnd {
				switch kind {
				case "inner":
					return spanEnd{v: clv[e]}
				case "tip":
					return spanEnd{tip: true, row: codes[e]}
				}
				tab := make([]float64, alignment.NumCodes(dt)*s+1)[1:] // unaligned rows
				if e == 0 {
					tab = buildTipSumLeft(tab, dt, every, c.freqs, c.ev, s)
				} else {
					tab = buildTipSumRight(tab, dt, every, c.eviT, s)
				}
				return spanEnd{tip: true, row: codes[e], tab: tab}
			}
			for _, ka := range ends {
				for _, kb := range ends {
					c.a, c.b = bind(0, ka), bind(1, kb)
					run := schedule.Run{Lo: offset, Hi: offset + n}
					label := fmt.Sprintf("s=%d cats=%d %s/%s", s, cats, ka, kb)
					sums := [3][]float64{}
					for k := range sums {
						sums[k] = make([]float64, c.sumBase+n*c.cs+2)
						for i := range sums[k] {
							sums[k][i] = math.NaN() // an entry no arm writes stays NaN in all three
						}
					}
					kernel, scalar, ref := c, c, c
					kernel.sum, scalar.sum, ref.sum = sums[0], sums[1], sums[2]
					kernel.sumtableGeneric(run)
					was := SumtableKernel.Set(false)
					scalar.sumtableGeneric(run)
					SumtableKernel.Set(was)
					ref.sumtableReference(run)
					sameSums(t, label+", kernel against the scalar loop", sums[0], sums[1])
					sameSums(t, label+", kernel against the reference", sums[0], sums[2])
					runs++
				}
			}
		}
	}
	t.Logf("%d runs compared", runs)
}

// TestNewviewRowsKernelBitIdentity: newviewGeneric at twenty states with its
// kernels (where the host runs them) against its scalar loop alone (the
// kernel off) and the per-pattern reference, at one to four categories (two
// and four pair every category in the table-row shape, one and three leave
// one alone), for inner/inner, table/inner, inner/table, bare-tip/inner and
// table/table children. CLV, P block and table
// entries are signed, every category's block its own; a third of the
// patterns' CLVs, and a third of the table rows, sit near 2^-256, so a
// product of two needs rescaling, and every ninth pattern's CLVs near
// 2^-515, so an inner/inner product is subnormal.
// Planes and table rows are unaligned. The CLVs, the scaling exponents and
// the scaling count must agree bit for bit.
func TestNewviewRowsKernelBitIdentity(t *testing.T) {
	if !slices.Contains(cpufeat.Kernels(), NewviewRowsKernel) {
		t.Fatal("NewviewRowsKernel is not listed by cpufeat.Kernels(): a scalar arm would leave it on")
	}
	host := NewviewRowsKernel.Set(true)
	t.Cleanup(func() { NewviewRowsKernel.Set(host) })
	t.Logf("kernel on: %v", NewviewRowsKernel.On())
	rng := rand.New(rand.NewSource(46))
	signed := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
		}
		return v
	}
	const n, offset, s = 17, 3, 20
	dt, codes := alignment.AA, alignment.NumCodes(alignment.AA)
	runs := 0
	for _, cats := range []int{1, 2, 3, 4} {
		plane := n*s + 3
		c := spanCtx{partition: partition{s: s, cats: cats, cs: cats * s, base: 5, catStride: plane,
			partOffset: offset, dtype: dt, applyP: model.ApplyCols}}
		c.tmp = make([]float64, s)
		// Both children's CLVs, scaling exponents, tip rows, P blocks and
		// tables; some patterns scaled down.
		var clv, pm, tab [2][]float64
		var sc [2][]int32
		var row [2][]byte
		for e := range clv {
			clv[e], pm[e] = signed(c.base+cats*plane), signed(cats*s*s)
			tab[e] = signed(codes*c.cs + 1)[1:]
			for code := 0; code < codes; code += 3 {
				for k := range c.cs {
					tab[e][code*c.cs+k] *= 0x1p-256
				}
			}
			sc[e], row[e] = make([]int32, offset+n), make([]byte, n)
			for j := range row[e] {
				row[e][j] = byte(rng.Intn(codes))
				sc[e][offset+j] = int32(rng.Intn(3))
				scale := 1.0
				switch {
				case j%9 == 0:
					scale = 0x1p-515
				case j%3 == 0:
					scale = 0x1p-256
				}
				for cat := 0; cat < cats; cat++ {
					v := clv[e][c.base+cat*plane+j*s:][:s]
					for a := range v {
						v[a] *= scale
					}
				}
			}
		}
		bind := func(e int, kind string) spanEnd {
			switch kind {
			case "inner":
				return spanEnd{v: clv[e], sc: sc[e], pm: pm[e]}
			case "tip":
				return spanEnd{tip: true, row: row[e], pm: pm[e]}
			}
			return spanEnd{tip: true, row: row[e], pm: pm[e], tab: tab[e]}
		}
		for _, ends := range [][2]string{{"inner", "inner"}, {"table", "inner"}, {"inner", "table"}, {"tip", "inner"}, {"table", "table"}} {
			c.a, c.b = bind(0, ends[0]), bind(1, ends[1])
			run := schedule.Run{Lo: offset, Hi: offset + n}
			label := fmt.Sprintf("cats=%d %s/%s", cats, ends[0], ends[1])
			var arms [3]spanCtx
			for k := range arms {
				arms[k] = c
				arms[k].dst, arms[k].dstScale = make([]float64, c.base+cats*plane+2), make([]int32, offset+n)
				for i := range arms[k].dst {
					arms[k].dst[i] = math.NaN() // an entry no arm writes stays NaN in all three
				}
			}
			arms[0].newviewGeneric(run)
			was := NewviewRowsKernel.Set(false)
			arms[1].newviewGeneric(run)
			NewviewRowsKernel.Set(was)
			arms[2].newviewReference(run)
			for k, arm := range []string{"scalar loop", "reference"} {
				other := &arms[k+1]
				sameSums(t, label+", kernel against the "+arm, arms[0].dst, other.dst)
				if !slices.Equal(arms[0].dstScale, other.dstScale) || arms[0].scaled != other.scaled {
					t.Fatalf("%s: scaling exponents %v (%v events), the %s's %v (%v)", label, arms[0].dstScale, arms[0].scaled, arm, other.dstScale, other.scaled)
				}
			}
			if arms[0].scaled == 0 {
				t.Fatalf("%s: no pattern was rescaled", label)
			}
			runs++
		}
	}
	t.Logf("%d runs compared", runs)
}

// TestGenericBodiesMatchReference sweeps the generic bodies over a DNA + AA
// dataset (s = 4 and 20) under both backends, with and without tip tables:
// all three newview cases, both evaluate arms and every sumtable end
// combination a tree has, each against the pre-change loop above.
func TestGenericBodiesMatchReference(t *testing.T) {
	d, models := mixedFixture(t, 4, 57)
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
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
				run := schedule.Run{Lo: part.Offset, Hi: part.Offset + part.PatternCount}
				lo, n := eng.layout.Base(ip), part.PatternCount*eng.numCats*part.Type.States()
				var ctx parallel.WorkerCtx
				c := eng.workers[0].span

				seen := map[string]bool{}
				tr.ClearX()
				steps := tree.ComputeTraversal(nil, tr.Tips[0].Back)
				for si := range steps {
					c.bind(&region{kind: parallel.RegionNewview, steps: steps}, parallel.RegionNewview, si, ip, part.PatternCount, &ctx)
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
						eng.BranchDerivatives(p, make([]float64, len(eng.Models)), nil, nil, nil, nil, nil)
						c.bind(&region{kind: parallel.RegionEvaluate, p: p}, parallel.RegionEvaluate, 0, ip, part.PatternCount, &ctx)
						seen[fmt.Sprint("evaluate ", c.a.tip, c.b.tip, c.b.tab != nil)] = true
						for j := 0; j < part.PatternCount; j++ {
							got, want := c.patternLi(j, c.base+j*c.s), c.patternLiReference(j, c.base+j*c.s)
							sameBits(t, fmt.Sprintf("%s evaluate pattern %d", label, j), []float64{got}, []float64{want})
						}

						c.bind(&region{kind: parallel.RegionSumTable, p: p}, parallel.RegionSumTable, 0, ip, part.PatternCount, &ctx)
						seen[fmt.Sprint("sumtable ", c.a.tip, c.b.tip, c.a.tab != nil, c.b.tab != nil)] = true
						ref := c
						ref.sum = make([]float64, len(c.sum))
						c.sumtableGeneric(run)
						ref.sumtableReference(run)
						sameBits(t, label+" sumtable", c.sum[c.sumBase:c.sumBase+n], ref.sum[c.sumBase:c.sumBase+n])
					}
				}
				if len(seen) != 6 { // inner/inner, and a tip at either end: its table built iff specialize
					t.Fatalf("%s: evaluate and sumtable end combinations %v", label, seen)
				}
			}
		}
	}
}
