package alignment_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

// compressReference is Compress as it was before the one-pass rewrite: one
// EncodeChar call a character, a string key allocated for every column, and
// a slice per pattern transposed into Tips. Compress must return what it
// returns, errors word for word.
func compressReference(a *alignment.Alignment, parts []alignment.Partition, opts alignment.CompressOptions) (*alignment.CompressedData, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("alignment: no partitions")
	}
	n := a.NumTaxa()
	d := &alignment.CompressedData{TaxaNames: append([]string(nil), a.Names...)}
	offset := 0
	for pi := range parts {
		part := &parts[pi]
		if len(part.Sites) == 0 {
			return nil, fmt.Errorf("alignment: partition %q is empty", part.Name)
		}
		cp := &alignment.CompressedPartition{
			Name:      part.Name,
			Type:      part.Type,
			Offset:    offset,
			SiteCount: len(part.Sites),
			Present:   make([]bool, n),
		}
		col := make([]byte, n)
		index := make(map[string]int)
		var patterns [][]byte
		var weights []float64
		for _, site := range part.Sites {
			if site < 0 || site >= a.NumSites() {
				return nil, fmt.Errorf("alignment: partition %q references column %d outside alignment", part.Name, site)
			}
			for t := 0; t < n; t++ {
				code, err := alignment.EncodeChar(part.Type, a.Seqs[t][site])
				if err != nil {
					return nil, fmt.Errorf("taxon %q column %d: %v", a.Names[t], site+1, err)
				}
				col[t] = code
				if !alignment.IsGapCode(part.Type, code) {
					cp.Present[t] = true
				}
			}
			if opts.KeepDuplicates {
				patterns = append(patterns, append([]byte(nil), col...))
				weights = append(weights, 1)
				continue
			}
			key := string(col)
			if at, ok := index[key]; ok {
				weights[at]++
			} else {
				index[key] = len(patterns)
				patterns = append(patterns, append([]byte(nil), col...))
				weights = append(weights, 1)
			}
		}
		cp.PatternCount = len(patterns)
		cp.Weights = weights
		cp.Tips = make([][]byte, n)
		cp.Codes = make([][]byte, n)
		for t := 0; t < n; t++ {
			row := make([]byte, len(patterns))
			var seen uint32
			for i, pat := range patterns {
				row[i] = pat[t]
				seen |= 1 << pat[t]
			}
			cp.Tips[t] = row
			codes := make([]byte, 0, bits.OnesCount32(seen))
			for c := byte(0); seen != 0; c, seen = c+1, seen>>1 {
				if seen&1 != 0 {
					codes = append(codes, c)
				}
			}
			cp.Codes[t] = codes
		}
		offset += cp.PatternCount
		d.TotalSites += cp.SiteCount
		d.Parts = append(d.Parts, cp)
	}
	d.TotalPatterns = offset
	return d, nil
}

// sameCompression reports how Compress differs from compressReference on
// one input, under both settings of KeepDuplicates: a different error text,
// an error on one side only, or a different field of the result.
func sameCompression(a *alignment.Alignment, parts []alignment.Partition) error {
	for _, keep := range []bool{false, true} {
		opts := alignment.CompressOptions{KeepDuplicates: keep}
		got, gotErr := alignment.Compress(a, parts, opts)
		want, wantErr := compressReference(a, parts, opts)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			return fmt.Errorf("KeepDuplicates %v: error %v, reference %v", keep, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				return fmt.Errorf("KeepDuplicates %v: error %q, reference %q", keep, gotErr, wantErr)
			}
		case !reflect.DeepEqual(got, want):
			return fmt.Errorf("KeepDuplicates %v: result differs from the reference", keep)
		}
	}
	return nil
}

// simulated is a seqsim alignment of the given partition types on a random
// tree: short branches leave duplicate columns to merge.
func simulated(t *testing.T, types []alignment.DataType, taxa, partLen int, seed int64) (*alignment.Alignment, []alignment.Partition) {
	t.Helper()
	names := seqsim.TaxaNames(taxa)
	tr, err := tree.Random(names, len(types), tree.RandomOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.Model, len(types))
	lens := make([]int, len(types))
	for i, dt := range types {
		if dt == alignment.AA {
			models[i], err = model.SYN20(4, 0.5)
		} else {
			models[i], err = model.GTR(nil, nil, 4, 0.5)
		}
		if err != nil {
			t.Fatal(err)
		}
		lens[i] = partLen
	}
	a, parts, err := seqsim.Simulate(tr, models, lens, seqsim.Options{Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return a, parts
}

// ambiguity are the characters other than the concrete states each type
// accepts: IUPAC masks, gaps and unknowns, in both cases.
var ambiguity = map[alignment.DataType]string{
	alignment.DNA: "MRWSYKVHDBNX?-.Ouacgtmrwsykvhdbnxo",
	alignment.AA:  "BZX?-.*bzx",
}

// sprinkle overwrites about one character in five of every partition with
// an ambiguity code of its type, so that columns repeat up to ambiguity and
// every code reaches Tips and Codes.
func sprinkle(a *alignment.Alignment, parts []alignment.Partition, seed int64) *alignment.Alignment {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][]byte, len(a.Seqs))
	for t, s := range a.Seqs {
		seqs[t] = append([]byte(nil), s...)
	}
	for _, p := range parts {
		codes := ambiguity[p.Type]
		for _, site := range p.Sites {
			for t := range seqs {
				if rng.Intn(5) == 0 {
					seqs[t][site] = codes[rng.Intn(len(codes))]
				}
			}
		}
	}
	return &alignment.Alignment{Names: a.Names, Seqs: seqs}
}

// TestCompressMatchesReference holds Compress to compressReference on
// simulated DNA, protein and mixed data, with and without ambiguity codes,
// on examples/gappy, and with KeepDuplicates either way.
func TestCompressMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		types []alignment.DataType
		taxa  int
		len   int
	}{
		{"dna", []alignment.DataType{alignment.DNA, alignment.DNA, alignment.DNA}, 8, 120},
		{"aa", []alignment.DataType{alignment.AA, alignment.AA}, 6, 80},
		{"mixed", []alignment.DataType{alignment.DNA, alignment.AA, alignment.DNA, alignment.AA}, 12, 60},
		{"wide", []alignment.DataType{alignment.DNA}, 40, 300},
	}
	for i, c := range cases {
		a, parts := simulated(t, c.types, c.taxa, c.len, int64(100+i))
		if err := sameCompression(a, parts); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if err := sameCompression(sprinkle(a, parts, int64(200+i)), parts); err != nil {
			t.Errorf("%s with ambiguity codes: %v", c.name, err)
		}
		d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d.TotalPatterns == d.TotalSites {
			t.Errorf("%s: no duplicate columns, so merging was not exercised", c.name)
		}
	}
	gappy, err := alignment.ReadPhylip(strings.NewReader(alignment.ExampleAlignment(t, "gappy")))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{
		"DNA, gene0 = 1-20\nDNA, gene1 = 21-40\n",
		"DNA, gene0 = 1-10\nWAG, gene1 = 11-20, 31-40\nDNA, gene2 = 21-30\\3\n",
	} {
		parts, err := alignment.ParsePartitionFile(strings.NewReader(scheme), gappy.NumSites())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCompression(gappy, parts); err != nil {
			t.Errorf("examples/gappy under %q: %v", scheme, err)
		}
	}
}

// TestCompressErrorsMatchReference: every rejection is the reference's, word
// for word — an invalid character (the first one in column order, then taxon
// order, named with its taxon and 1-based column), an unknown data type, a
// column outside the alignment, an empty partition, no partitions.
func TestCompressErrorsMatchReference(t *testing.T) {
	a, err := alignment.New([]string{"t1", "t2", "t3"}, [][]byte{[]byte("ACGTA"), []byte("ACJTA"), []byte("AC!T@")})
	if err != nil {
		t.Fatal(err)
	}
	dna := func(sites ...int) []alignment.Partition {
		return []alignment.Partition{{Name: "g", Type: alignment.DNA, Sites: sites}}
	}
	for _, c := range []struct {
		parts []alignment.Partition
		want  string
	}{
		{dna(0, 1, 2, 3, 4), `taxon "t2" column 3: alignment: invalid DNA character "J"`},
		{dna(0, 4, 2), `taxon "t3" column 5: alignment: invalid DNA character "@"`},
		{[]alignment.Partition{{Name: "p", Type: alignment.AA, Sites: []int{0, 1, 2}}}, `taxon "t2" column 3: alignment: invalid AA character "J"`},
		{[]alignment.Partition{{Name: "x", Type: alignment.DataType(7), Sites: []int{1}}}, `taxon "t1" column 2: alignment: unknown data type DataType(7)`},
		{dna(0, 5), `alignment: partition "g" references column 5 outside alignment`},
		{dna(0, -1), `alignment: partition "g" references column -1 outside alignment`},
		{append(dna(0), alignment.Partition{Name: "e", Type: alignment.DNA}), `alignment: partition "e" is empty`},
		{nil, "alignment: no partitions"},
	} {
		_, err := alignment.Compress(a, c.parts, alignment.CompressOptions{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: error %v, want %q", c.parts, err, c.want)
		}
		if err := sameCompression(a, c.parts); err != nil {
			t.Errorf("%v: %v", c.parts, err)
		}
	}
}

// FuzzCompress: on any parsed alignment and partition scheme, Compress
// returns what compressReference does, or both reject it with one text.
func FuzzCompress(f *testing.F) {
	f.Add(alignment.ExampleAlignment(f, "gappy"), "DNA, gene0 = 1-20\nDNA, gene1 = 21-40\n")
	f.Add(alignment.ExampleAlignment(f, "gappy"), "DNA, gene0 = 1-10\nWAG, gene1 = 11-20, 31-40\nDNA, gene2 = 21-30\\3\n")
	f.Add(alignment.ExampleAlignment(f, "quickstart"), "DNA, all = 1-60\n")
	f.Add("3 8\nt1 ACGTRYN-\nt2 acgtu?.O\nt3 MKWSBDHV\n", "DNA, a = 1-4\nDNA, b = 5-8\n")
	f.Add("4 6\nt1 ARNDCQ\nt2 BZX*-?\nt3 egHILK\nt4 MFPSTW\n", "WAG, p = 1-6\n")
	f.Add("3 4\nt1 ACGT\nt2 ACJT\nt3 ACGT\n", "DNA, g = 1-4\n")
	f.Fuzz(func(t *testing.T, body, scheme string) {
		a, err := alignment.ReadPhylip(strings.NewReader(body))
		if err != nil {
			return
		}
		parts, err := alignment.ParsePartitionFile(strings.NewReader(scheme), a.NumSites())
		if err != nil {
			return
		}
		if err := sameCompression(a, parts); err != nil {
			t.Fatal(err)
		}
	})
}
