package numeric

import (
	"math/rand"
	"testing"
)

// TestSourceIsMathRand holds NewSource to rand.NewSource output for output:
// the seed normalisation (mod 2³¹−1, negative seeds, the zero case), 10,000
// draws per seed (across the draw that builds the register), the Rand
// methods the program draws through, and reseeding mid-stream.
func TestSourceIsMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 89482311, 1 << 40}
	gen := rand.New(rand.NewSource(2024))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, seed := range seeds {
		want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
		for k := 0; k < 10000; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, k, g, w)
			}
		}
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 = %d, want %d", seed, g, w)
		}
	}

	// The methods the program draws through, interleaved so every phase of
	// the register (virtual, the building draw, built) meets each of them.
	for _, seed := range seeds[:20] {
		want, got := rand.New(rand.NewSource(seed)), rand.New(NewSource(seed))
		for round := 0; round < 40; round++ {
			wp, gp := want.Perm(9), got.Perm(9)
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("seed %d round %d: Perm = %v, want %v", seed, round, gp, wp)
				}
			}
			if w, g := want.Intn(13+round), got.Intn(13+round); w != g {
				t.Fatalf("seed %d round %d: Intn = %d, want %d", seed, round, g, w)
			}
			if w, g := want.Int63n(1e9+7), got.Int63n(1e9+7); w != g {
				t.Fatalf("seed %d round %d: Int63n = %d, want %d", seed, round, g, w)
			}
			if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
				t.Fatalf("seed %d round %d: ExpFloat64 = %v, want %v", seed, round, g, w)
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d round %d: Float64 = %v, want %v", seed, round, g, w)
			}
			// Reseed mid-stream now and then, at every phase of the register.
			if round%7 == 3 {
				next := seeds[(round*31)%len(seeds)]
				want.Seed(next)
				got.Seed(next)
			}
		}
	}

	// A reseed after the register is built restarts the virtual phase.
	want, got := rand.New(rand.NewSource(5)), rand.New(NewSource(5))
	for _, n := range []int{1000, 272, 273, 274, 0, 606, 607, 608} {
		for k := 0; k < n; k++ {
			want.Uint64()
			got.Uint64()
		}
		want.Seed(int64(n) - 300)
		got.Seed(int64(n) - 300)
		for k := 0; k < 700; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("reseed after %d draws: draw %d = %#x, want %#x", n, k, g, w)
			}
		}
	}
}

// BenchmarkSourceSeed times a seed and the 30 draws of an 8-taxon start tree.
func BenchmarkSourceSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  func(int64) rand.Source
	}{
		{"numeric", func(s int64) rand.Source { return NewSource(s) }},
		{"mathrand", rand.NewSource},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := bc.src(int64(i))
				for k := 0; k < 30; k++ {
					src.Int63()
				}
			}
		})
	}
}

// BenchmarkSourceReseed times a reseed and 600 draws on one generator, the
// way NewWeightSet draws each replicate: past the draw that builds the
// register, which a reseeded stream's virtual draws have mostly filled.
func BenchmarkSourceReseed(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{
		{"numeric", NewSource(1)},
		{"mathrand", rand.NewSource(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.src.Seed(int64(i))
				for k := 0; k < 600; k++ {
					bc.src.Int63()
				}
			}
		})
	}
}
