package model

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// pmatricesGrid calls f on each case of the 4-state PMatrices grid: random GTR
// frequencies and exchangeabilities, alpha log-spaced across [MinAlpha,
// MaxAlpha], 1, 2, 4 and 8 categories, and branch lengths from 0 through 100
// plus the ones a span can hand over unclamped (negative, -0, NaN).
func pmatricesGrid(t *testing.T, f func(label string, m *Model, z float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	zs := []float64{0, 1e-8, 1e-6, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.3, 1, 2.5, 10, 40, 100,
		-0.3, -1e-300, math.Copysign(0, -1), math.NaN()}
	for round := 0; round < 60; round++ {
		freqs, ex := make([]float64, 4), make([]float64, 6)
		for i := range freqs {
			freqs[i] = 0.02 + rng.Float64()
		}
		for i := range ex {
			ex[i] = MinRate + 20*rng.Float64()*rng.Float64()
		}
		alpha := MinAlpha * math.Pow(MaxAlpha/MinAlpha, float64(round)/59)
		for _, cats := range []int{1, 2, 4, 8} {
			m, err := GTR(freqs, ex, cats, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, z := range zs {
				f(fmt.Sprintf("round %d alpha=%v cats=%d z=%v", round, alpha, cats, z), m, z)
			}
			for i := 0; i < 4; i++ {
				z := math.Exp(-12 + 17*rng.Float64())
				f(fmt.Sprintf("round %d alpha=%v cats=%d z=%v", round, alpha, cats, z), m, z)
			}
		}
	}
}

// TestPMatricesMatchPMatrix: every block PMatrices writes is the scalar
// PMatrix of its category by Float64bits, over the grid, with the AVX2 kernel
// (where the host runs it) and without.
func TestPMatricesMatchPMatrix(t *testing.T) {
	host := SetVectorPMatrix(true)
	t.Cleanup(func() { SetVectorPMatrix(host) })
	for _, on := range []bool{true, false} {
		SetVectorPMatrix(on)
		kernel, declined := 0, 0
		pmatricesGrid(t, func(label string, m *Model, z float64) {
			got, want := make([]float64, m.NumCats*16), make([]float64, 16)
			if m.pmatrices4Vec(z, got) {
				kernel++
			} else {
				declined++
			}
			m.PMatrices(z, got)
			for c := 0; c < m.NumCats; c++ {
				m.PMatrix(m.CatRates[c]*z, want)
				for k, w := range want {
					if g := got[c*16+k]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("vector=%v %s: P_%d[%d] = %v (%#x), PMatrix %v (%#x)", VectorPMatrix(), label, c, k,
							g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		})
		t.Logf("vector kernel %v: %d calls computed by the kernel, %d declined", VectorPMatrix(), kernel, declined)
	}
}

// TestPMatricesGridBitsPinned holds PMatrices over the grid to the bits it
// had while every block was the per-category scalar PMatrix. The exponential
// the bits come from is the toolchain's, which on amd64 rounds differently
// with and without FMA (GODEBUG=cpu.fma=off selects the second), so there is
// one constant per host class; other architectures are not pinned.
func TestPMatricesGridBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the recorded bits are amd64's")
	}
	const fmaHost, sseHost = 0x99b8535a3f6a52a4, 0xbb6c1fb5265f85e8
	h := fnv.New64a()
	pmatricesGrid(t, func(_ string, m *Model, z float64) {
		dst := make([]float64, m.NumCats*16)
		m.PMatrices(z, dst)
		for _, v := range dst {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	})
	if got := h.Sum64(); got != fmaHost && got != sseHost {
		t.Fatalf("PMatrices grid hashes to %#x, want %#x (FMA host) or %#x (SSE host)", got, uint64(fmaHost), uint64(sseHost))
	}
}

// BenchmarkPMatrices times one 4-category block set, the set-up a span pays
// per child branch: at four states with the AVX2 kernel and with the scalar
// code, at twenty with ApplyCols' AVX kernel and with its scalar loop.
func BenchmarkPMatrices(b *testing.B) {
	dna, err := GTR([]float64{0.31, 0.19, 0.27, 0.23}, []float64{1.3, 2.8, 0.6, 1.1, 3.5, 1}, 4, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	aa, err := SYN20(4, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	host, hostCols := SetVectorPMatrix(true), SetVectorApplyCols(true)
	b.Cleanup(func() { SetVectorPMatrix(host); SetVectorApplyCols(hostCols) })
	for _, m := range []*Model{dna, aa} {
		dst := make([]float64, m.NumCats*m.States*m.States)
		for _, on := range []bool{true, false} {
			SetVectorPMatrix(on)
			SetVectorApplyCols(on)
			vector := VectorPMatrix()
			if m.States != 4 {
				vector = VectorApplyCols()
			}
			name := fmt.Sprintf("s%d/scalar", m.States)
			if vector {
				name = fmt.Sprintf("s%d/avx", m.States)
			} else if on {
				continue
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.PMatrices(0.01+float64(i&15)*0.03, dst)
				}
			})
		}
	}
}
