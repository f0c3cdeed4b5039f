package model

import (
	"math"
	"math/rand"
	"testing"
)

// expArgs is the sweep TestExpsBitIdentity runs Exps over: both guard edges
// and their neighbours, the overflow threshold and beyond, the subnormal and
// zero results below -708.4 and -745, NaN, ±Inf, ±0 and the smallest
// subnormals, then uniform draws over ±700 and the decades near 0.
func expArgs(rng *rand.Rand, n int) []float64 {
	x := []float64{-700, 700, math.Nextafter(-700, -1000), math.Nextafter(700, 1000),
		math.Nextafter(-700, 0), math.Nextafter(700, 0), 709.78, 709.782712893384, 710, 1000,
		-708.4, -720, -744.4, -745.2, -800, -1e300, 1e300, math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300}
	for len(x) < n {
		switch rng.Intn(4) {
		case 0:
			x = append(x, math.Copysign(math.Exp(-40+45*rng.Float64()), rng.Float64()-0.5))
		default:
			x = append(x, (2*rng.Float64()-1)*700)
		}
	}
	return x
}

// TestExpsBitIdentity holds Exps to math.Exp by Float64bits with its kernel
// on (where the host runs it) and off: over the sweep at every length 0…40
// and every offset into it (all tail lengths, quartets refused singly and
// side by side, a group of four chains cut anywhere), shuffled, and over
// slices past the kernel's 64 quartets a call.
func TestExpsBitIdentity(t *testing.T) {
	host := ExpsKernel.Set(true)
	t.Cleanup(func() { ExpsKernel.Set(host) })
	rng := rand.New(rand.NewSource(35))
	args := expArgs(rng, 4096)
	check := func(label string, in []float64) {
		t.Helper()
		got := append([]float64(nil), in...)
		Exps(got)
		for k, x := range in {
			if math.Float64bits(got[k]) != math.Float64bits(math.Exp(x)) {
				t.Fatalf("%s: exp(%v) = %v (%#x), math.Exp %v (%#x)", label, x, got[k], math.Float64bits(got[k]),
					math.Exp(x), math.Float64bits(math.Exp(x)))
			}
		}
	}
	for _, on := range []bool{true, false} {
		ExpsKernel.Set(on)
		label := "kernel off"
		if ExpsKernel.On() {
			label = "kernel on"
		}
		for n := 0; n <= 40; n++ {
			for lo := 0; lo+n <= 64; lo++ {
				check(label, args[lo:lo+n])
			}
		}
		for round := 0; round < 200; round++ {
			rng.Shuffle(len(args), func(i, j int) { args[i], args[j] = args[j], args[i] })
			check(label, args[:1+rng.Intn(len(args))])
		}
		inside := expArgs(rng, 1031)[25:] // no refused quartet: every call the kernel's alone
		check(label, inside)
	}
}
