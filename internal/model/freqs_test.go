package model_test

import (
	"math"
	"math/rand"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/seqsim"
)

// empiricalFreqsReference is EmpiricalFreqs as it was before each code's
// states were looked up once a partition: it sums and scans the code's tip
// vector at every (taxon, pattern). EmpiricalFreqs must return its bits.
func empiricalFreqsReference(p *alignment.CompressedPartition) []float64 {
	s := p.Type.States()
	counts := make([]float64, s)
	for t := range p.Tips {
		for i, code := range p.Tips[t] {
			vec := alignment.TipVector(p.Type, code)
			n := 0.0
			for _, v := range vec {
				n += v
			}
			if n == 0 {
				continue
			}
			w := p.Weights[i] / n
			for st, v := range vec {
				if v != 0 {
					counts[st] += w
				}
			}
		}
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		for i := range counts {
			counts[i] = 1 / float64(s)
		}
		return counts
	}
	for i := range counts {
		counts[i] = (counts[i] + 0.1) / (total + 0.1*float64(s))
	}
	return counts
}

// TestEmpiricalFreqsMatchesReference holds EmpiricalFreqs to the reference
// bit for bit on every partition of simulated DNA and mixed DNA + protein
// data (gappy taxon blocks included): as simulated, with ambiguity codes and
// gaps written over about a fifth of the characters, and with those columns
// repeated one to seven times so that merged patterns carry weights that
// divide inexactly; duplicate columns merged and kept.
func TestEmpiricalFreqsMatchesReference(t *testing.T) {
	grid, err := seqsim.GridDataset(8, 2000, 500, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := seqsim.MixedDataset(10, 3, 2, 200, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	gappy, err := seqsim.RealWorldDataset(seqsim.R26Spec, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	ambiguity := map[alignment.DataType]string{alignment.DNA: "MRWSYKVHDBN-?", alignment.AA: "BZX-?"}
	for i, ds := range []*seqsim.Dataset{grid, mixed, gappy} {
		a := ds.Alignment
		rng := rand.New(rand.NewSource(int64(i)))
		seqs := make([][]byte, len(a.Seqs))
		for t, s := range a.Seqs {
			seqs[t] = append([]byte(nil), s...)
		}
		for _, p := range ds.Parts {
			codes := ambiguity[p.Type]
			for _, site := range p.Sites {
				for t := range seqs {
					if rng.Intn(5) == 0 {
						seqs[t][site] = codes[rng.Intn(len(codes))]
					}
				}
			}
		}
		repeated := make([][]byte, len(seqs))
		repParts := make([]alignment.Partition, len(ds.Parts))
		for pi, p := range ds.Parts {
			repParts[pi] = alignment.Partition{Name: p.Name, Type: p.Type}
			for _, site := range p.Sites {
				for range site%7 + 1 {
					repParts[pi].Sites = append(repParts[pi].Sites, len(repeated[0]))
					for t := range seqs {
						repeated[t] = append(repeated[t], seqs[t][site])
					}
				}
			}
		}
		for _, in := range []struct {
			al    *alignment.Alignment
			parts []alignment.Partition
		}{
			{a, ds.Parts},
			{&alignment.Alignment{Names: a.Names, Seqs: seqs}, ds.Parts},
			{&alignment.Alignment{Names: a.Names, Seqs: repeated}, repParts},
		} {
			for _, keep := range []bool{false, true} {
				d, err := alignment.Compress(in.al, in.parts, alignment.CompressOptions{KeepDuplicates: keep})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range d.Parts {
					got, want := model.EmpiricalFreqs(p), empiricalFreqsReference(p)
					for s := range want {
						if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
							t.Fatalf("%s partition %s (%v): frequencies %v, reference %v", ds.Name, p.Name, p.Type, got, want)
						}
					}
				}
			}
		}
	}
}
