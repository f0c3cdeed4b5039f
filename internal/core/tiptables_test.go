package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylo/internal/alignment"
)

// The dense builders the gathers of tiptables.go replaced, kept as their
// reference: every row multiplied out against the code's 0/1 tip vector over
// all s states, ascending from zero — what the generic kernels do per pattern.
// pm is read in the block layout of model.PMatrices (pAt).

func denseTipTable(dst []float64, t alignment.DataType, codes []byte, pm []float64, s, cats int) {
	for _, code := range codes {
		tv := alignment.TipVector(t, code)
		for c := 0; c < cats; c++ {
			for a := 0; a < s; a++ {
				sum := 0.0
				for b := 0; b < s; b++ {
					sum += pAt(pm[c*s*s:], s, a, b) * tv[b]
				}
				dst[(int(code)*cats+c)*s+a] = sum
			}
		}
	}
}

func denseTipSumLeft(dst []float64, t alignment.DataType, codes []byte, freqs, v []float64, s int) {
	for _, code := range codes {
		tv := alignment.TipVector(t, code)
		for k := 0; k < s; k++ {
			sum := 0.0
			for a := 0; a < s; a++ {
				sum += freqs[a] * tv[a] * v[a*s+k]
			}
			dst[int(code)*s+k] = sum
		}
	}
}

func denseTipSumRight(dst []float64, t alignment.DataType, codes []byte, vi []float64, s int) {
	for _, code := range codes {
		tv := alignment.TipVector(t, code)
		for k := 0; k < s; k++ {
			sum := 0.0
			for a := 0; a < s; a++ {
				sum += vi[k*s+a] * tv[a]
			}
			dst[int(code)*s+k] = sum
		}
	}
}

// transposed returns m, a run of s×s blocks, with every block transposed: a
// row-major block becomes the column-major one of the same matrix, and back.
func transposed(m []float64, s int) []float64 {
	out := make([]float64, len(m))
	for o := 0; o+s*s <= len(m); o += s * s {
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				out[o+j*s+i] = m[o+i*s+j]
			}
		}
	}
	return out
}

// awkward overwrites a share of v with the values a skipped or single term
// could be mishandled on: exact zeros, the smallest subnormal, a subnormal,
// 1.0 and, where the matrix is signed, -0 and negated subnormals.
func awkward(rng *rand.Rand, v []float64, signed bool) {
	vals := []float64{0, 5e-324, 1e-310, 1, 0.25}
	if signed {
		vals = append(vals, math.Copysign(0, -1), -5e-324, -1e-310, -1)
	}
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = vals[rng.Intn(len(vals))]
		}
	}
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestTipTable4MatchesGather: the written-out 4-state builder gives the
// gather's table (over the same blocks, column-major) bit for bit for all 16 DNA codes — the empty code 0, the four
// bases, the ten ambiguity codes and 15 (N, gap) — at 1, 3 and 4 categories,
// over real P blocks and blocks salted with zeros, subnormals and ones (and,
// though P never holds them, -0 and negatives: a lone term still starts from
// +0), for random subsets of the codes; rows of absent codes stay as they were.
func TestTipTable4MatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cats := range []int{1, 3, 4} {
		m := tipCaseModels(t, alignment.DNA, cats, 0.4)
		for round := 0; round < 60; round++ {
			pm := make([]float64, cats*16)
			m.PMatrices([]float64{0, 1e-8, 0.03, 0.4, 5, 64}[round%6], pm)
			if round%2 == 1 {
				awkward(rng, pm, round%4 == 3)
			}
			codes := make([]byte, 16)
			for code := range codes {
				codes[code] = byte(code)
			}
			if round >= 2 {
				rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
				codes = codes[:1+rng.Intn(16)]
			}
			got, want := make([]float64, 16*cats*4), make([]float64, 16*cats*4)
			for i := range got {
				got[i], want[i] = math.NaN(), math.NaN()
			}
			buildTipTable4(got, codes, pm, cats)
			gatherTipTable(want, alignment.DNA, codes, transposed(pm, 4), 4, cats)
			sameBits(t, fmt.Sprintf("cats=%d round %d codes %v", cats, round, codes), got, want)
		}
	}
}

// TestTipTableGatherBitIdentity: for every code of both alphabets — gap /
// all-ambiguity, the DNA two- and three-state codes, AA B and Z included —
// the gathered rows are the dense rows bit for bit, for the newview/evaluate
// table and both sumtable projections, over real matrices and over matrices
// salted with exact zeros, subnormals, ones and (eigenvectors only: P is never
// negative) signed zeros.
func TestTipTableGatherBitIdentity(t *testing.T) {
	const cats = 4
	rng := rand.New(rand.NewSource(23))
	for _, dtype := range []alignment.DataType{alignment.DNA, alignment.AA} {
		s, n := dtype.States(), alignment.NumCodes(dtype)
		codes := make([]byte, n)
		for code := range codes {
			codes[code] = byte(code)
		}
		m := tipCaseModels(t, dtype, cats, 0.7)
		for round := 0; round < 40; round++ {
			pm := make([]float64, cats*s*s)
			freqs := append([]float64(nil), m.Freqs...)
			ev := append([]float64(nil), m.EigenVecs...)
			evi := append([]float64(nil), m.InvVecs...)
			switch {
			case round == 0:
				m.PMatrices(0.13, pm)
			case round == 1: // the identity: one 1.0 and s-1 exact zeros a row
				for c := 0; c < cats; c++ {
					for a := 0; a < s; a++ {
						pm[c*s*s+a*s+a] = 1
					}
				}
				awkward(rng, ev, true)
				awkward(rng, evi, true)
			default:
				m.PMatrices([]float64{0, 1e-8, 0.4, 64}[round%4], pm)
				awkward(rng, pm, false)
				awkward(rng, ev, true)
				awkward(rng, evi, true)
			}

			got, want := make([]float64, n*cats*s), make([]float64, n*cats*s)
			buildTipTable(got, dtype, codes, pm, s, cats)
			denseTipTable(want, dtype, codes, pm, s, cats)
			sameBits(t, dtype.String()+" P application", got, want)

			got, want = make([]float64, n*s), make([]float64, n*s)
			buildTipSumLeft(got, dtype, codes, freqs, ev, s)
			denseTipSumLeft(want, dtype, codes, freqs, ev, s)
			sameBits(t, dtype.String()+" left projection", got, want)

			buildTipSumRight(got, dtype, codes, transposed(evi, s), s)
			denseTipSumRight(want, dtype, codes, evi, s)
			sameBits(t, dtype.String()+" right projection", got, want)
		}
	}
}
