package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// logInputs is the sweep TestSiteLogBitIdentity holds the 4-lane log kernel
// to math.Log on, more than 10⁶ values: uniformly random bit patterns (every
// sign, exponent and class, NaN payloads included), random normals across the
// whole exponent range, random subnormals, every power of two from 2^-1074 to
// 2^1023 with its neighbours one and two ulps away, √2/2 times every power of
// two with the same neighbours (the reduction's branch point), ±0, ±Inf,
// NaN, SmallestNonzeroFloat64, MaxFloat64 and the site likelihoods' own range.
func logInputs(rng *rand.Rand) []float64 {
	var in []float64
	near := func(x float64) {
		lo, hi := x, x
		in = append(in, x)
		for k := 0; k < 2; k++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			in = append(in, lo, hi)
		}
	}
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
		near(math.Ldexp(math.Sqrt2/2, e))
	}
	near(math.SmallestNonzeroFloat64)
	near(math.MaxFloat64)
	near(1)
	in = append(in, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123))
	for k := 0; k < 1<<19; k++ {
		in = append(in, math.Float64frombits(rng.Uint64()))
	}
	for k := 0; k < 1<<18; k++ {
		exp := uint64(1 + rng.Intn(2046))
		in = append(in, math.Float64frombits(exp<<52|rng.Uint64()>>12))
	}
	for k := 0; k < 1<<16; k++ {
		in = append(in, math.Float64frombits(rng.Uint64()>>12))
	}
	for k := 0; k < 1<<17; k++ {
		in = append(in, math.Exp(-745*rng.Float64()))
	}
	return in
}

// TestSiteLogBitIdentity holds the site pass to what it replaced, bit for bit:
// the 4-lane log kernel to math.Log on every input of logInputs, and
// SiteLogs — over blocks of 0…40 patterns, with the kernel on and off — and
// the span binding's sites to the per-pattern site tail (siteReference) on
// raw likelihoods that clamp (±0, negatives, NaN), overflow the log's finite
// range (+Inf, MaxFloat64), underflow when normalized, or are ordinary, with
// scaling exponents from tip and inner ends.
func TestSiteLogBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	in := logInputs(rng)
	in = in[:len(in)&^3] // the kernel takes whole quartets
	host := SiteLogKernel.Set(true)
	t.Cleanup(func() { SiteLogKernel.Set(host) })
	if SiteLogKernel.On() {
		got := slices.Clone(in)
		if n := logsVec(got); n != len(got) {
			t.Fatalf("the kernel took %d of %d entries", n, len(got))
		}
		for k, x := range in {
			if want := math.Log(x); math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("kernel log(%v = %#x) = %v (%#x), math.Log %v (%#x)",
					x, math.Float64bits(x), got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
			}
		}
		t.Logf("kernel matches math.Log on %d inputs", len(in))
	} else {
		t.Logf("no AVX2 on this host: the kernel is not run, only the block pass")
	}

	edge := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e-310, minLikelihood, 1}
	raw := func() float64 {
		if rng.Intn(6) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return in[rng.Intn(len(in))]
	}
	const offset, patterns = 3, 200
	exps := func() []int32 {
		s := make([]int32, offset+patterns)
		for i := range s {
			s[i] = int32(rng.Intn(4)) - 1
		}
		return s
	}
	for trial := 0; trial < 20000; trial++ {
		invCats := []float64{1, 0.5, 1.0 / 3, 0.25, 0.125}[trial%5]
		n := rng.Intn(41)
		v, sc := make([]float64, n), make([]int32, n)
		for k := range v {
			v[k], sc[k] = raw(), int32(rng.Intn(5))-2
		}
		c := spanCtx{partition: partition{invCats: invCats, partOffset: offset}, a: spanEnd{sc: exps()}, b: spanEnd{sc: exps()}}
		switch trial % 3 {
		case 1:
			c.a = spanEnd{tip: true}
		case 2:
			c.b = spanEnd{tip: true}
		}
		i0 := offset + rng.Intn(8)
		m := min(n, siteBlock, offset+patterns-i0)
		for _, on := range []bool{true, false} {
			SiteLogKernel.Set(on)
			label := fmt.Sprintf("trial %d kernel %v n=%d", trial, SiteLogKernel.On(), n)
			got := slices.Clone(v)
			SiteLogs(got, sc, invCats)
			for k, x := range v {
				want := siteReference(x, sc[k], invCats)
				if math.Float64bits(got[k]) != math.Float64bits(want) {
					t.Fatalf("%s: SiteLogs entry %d of raw %v = %v, per-pattern site %v", label, k, x, got[k], want)
				}
			}
			got = slices.Clone(v[:m])
			c.sites(got, i0, c.invCats)
			for k, x := range v[:m] {
				want := c.siteReference(i0+k, x)
				if math.Float64bits(got[k]) != math.Float64bits(want) {
					t.Fatalf("%s: sites entry %d of raw %v = %v, per-pattern site %v", label, k, x, got[k], want)
				}
			}
		}
	}
}
