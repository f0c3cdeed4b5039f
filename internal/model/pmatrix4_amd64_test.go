package model

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"phylo/internal/cpufeat"
)

// mathExpFMA is whether math.Exp runs its FMA sequence here: the CPU has AVX
// and FMA and GODEBUG turns neither off, read as internal/cpu reads it (per
// feature, the last cpu.avx, cpu.fma or cpu.all setting wins).
func mathExpFMA() bool {
	avx, fma := cpufeat.AVX, cpufeat.FMA
	for _, f := range strings.Split(os.Getenv("GODEBUG"), ",") {
		key, v, _ := strings.Cut(f, "=")
		if v != "on" && v != "off" {
			continue
		}
		on := v == "on"
		switch key {
		case "cpu.all":
			avx, fma = on && cpufeat.AVX, on && cpufeat.FMA
		case "cpu.avx":
			avx = on && cpufeat.AVX
		case "cpu.fma":
			fma = on && cpufeat.FMA
		}
	}
	return avx && fma
}

// laneExp runs the kernel as four exponentials: the eigenvalues of an
// identity eigensystem at t = 1 give P = diag(exp(l)). wrote says whether any
// entry of the block changed.
func laneExp(l *[4]float64) (e [4]float64, ok, wrote bool) {
	id := [16]float64{0: 1, 5: 1, 10: 1, 15: 1}
	var p, poison [16]float64
	for i := range poison {
		poison[i] = 42
	}
	p = poison
	ok = pmatrices4AVX(p[:], l, &id, &id, []float64{1}, 1)
	for k := range e {
		e[k] = p[5*k]
	}
	return e, ok, p != poison
}

// TestHostPMatrixIsMathExps: the kernel, and Exps' kernel with it, runs
// exactly where the CPU has AVX2 and math.Exp runs its FMA sequence. Under
// GODEBUG=cpu.fma=off math.Exp runs its SSE sequence on the same CPU, and the
// probes must turn both kernels off so the scalar pmatrix4 fills every block
// and Exps takes every exponential with math.Exp.
func TestHostPMatrixIsMathExps(t *testing.T) {
	want := cpufeat.AVX2 && mathExpFMA()
	if PMatrix4Kernel.Host() != want {
		t.Fatalf("kernel on = %v, want %v (AVX2 %v, math.Exp fused %v)", PMatrix4Kernel.Host(), want, cpufeat.AVX2, mathExpFMA())
	}
	was := ExpsKernel.Set(true)
	defer ExpsKernel.Set(was)
	if ExpsKernel.On() != want {
		t.Fatalf("Exps kernel on = %v, want %v", ExpsKernel.On(), want)
	}
	x := expProbes
	if n := expsVec(x[:]); (n > 0) != want {
		t.Fatalf("Exps' kernel took %d of the %d probes, kernel on = %v", n, len(x), want)
	}
	t.Logf("kernel on: %v", PMatrix4Kernel.Host())
}

// TestLaneExpMatchesMathExp holds the kernel's exponential to math.Exp by
// Float64bits over 2^20 lanes it computes: uniform over ±700, the decades
// near 0, both guard edges and their neighbours, the overflow threshold
// 709.78 and beyond, the subnormal results below -708.4 and the zero ones
// below -745, NaN, ±Inf and ±0. A quartet with a lane outside [-700, 700] or
// NaN must be refused, and nothing written.
func TestLaneExpMatchesMathExp(t *testing.T) {
	if !PMatrix4Kernel.Host() {
		t.Skip("the kernel does not run here: the scalar pmatrix4 is the only realisation")
	}
	rng := rand.New(rand.NewSource(71))
	edges := []float64{-700, 700, math.Nextafter(-700, -1000), math.Nextafter(700, 1000),
		math.Nextafter(-700, 0), math.Nextafter(700, 0), 709.78, 709.782712893384, 710, 1000,
		-708.4, -720, -744.4, -745.2, -800, -1e300, 1e300, math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300}
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return -750 + 60*rng.Float64() // subnormal and zero results, and the lower edge
		case 2:
			return math.Copysign(math.Exp(-40+45*rng.Float64()), rng.Float64()-0.5)
		default:
			return (2*rng.Float64() - 1) * 700
		}
	}
	inside := func(x float64) bool { return x >= -700 && x <= 700 }
	lanes, refused := 0, 0
	for lanes < 1<<20 {
		var l [4]float64
		in := true
		for k := range l {
			l[k] = draw()
			in = in && inside(l[k])
		}
		if rng.Intn(2) == 0 && !in { // mostly whole quartets inside the guard
			for k := range l {
				for !inside(l[k]) {
					l[k] = draw()
				}
			}
			in = true
		}
		e, ok, wrote := laneExp(&l)
		if ok != in || ok != wrote {
			t.Fatalf("%v: kernel ok=%v wrote=%v, want ok=%v", l, ok, wrote, in)
		}
		if !ok {
			refused++
			continue
		}
		for k, x := range l {
			if math.Float64bits(e[k]) != math.Float64bits(math.Exp(x)) {
				t.Fatalf("exp(%v) = %v (%#x), math.Exp %v (%#x)", x, e[k], math.Float64bits(e[k]), math.Exp(x), math.Float64bits(math.Exp(x)))
			}
		}
		lanes += 4
	}
	t.Logf("%d lanes compared, %d quartets refused", lanes, refused)
}
