package seqsim

import (
	"fmt"
	"math"
	"math/rand"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/numeric"
	"phylo/internal/tree"
)

// Dataset bundles a generated alignment with its partition scheme, the
// generating tree, and the name used in the paper.
type Dataset struct {
	Name      string
	Alignment *alignment.Alignment
	Parts     []alignment.Partition
	SeedTree  *tree.Tree
}

// Stats summarizes the partition geometry in column counts (for the
// unique-column simulated datasets, columns are exactly the distinct
// patterns, m = m').
func (d *Dataset) Stats() alignment.PartitionStats {
	st := alignment.PartitionStats{NumPartitions: len(d.Parts)}
	for i, p := range d.Parts {
		n := len(p.Sites)
		if i == 0 || n < st.MinPatterns {
			st.MinPatterns = n
		}
		if n > st.MaxPatterns {
			st.MaxPatterns = n
		}
		st.TotalPatterns += n
	}
	return st
}

// GridTaxa and GridSites enumerate the paper's 12-dataset simulation grid:
// seed trees with 10, 20, 50 and 100 taxa, alignments of 5,000, 20,000 and
// 50,000 columns.
var (
	GridTaxa  = []int{10, 20, 50, 100}
	GridSites = []int{5000, 20000, 50000}
)

// GridDataset generates the simulated dataset dXX_YYYY of the paper: XX taxa,
// YYYY all-unique DNA columns evolved along a random seed tree under GTR+G
// with per-gene heterogeneity, divided into partitions of partLen columns
// (the p1000/p5000/p10000 schemes). scale shrinks the column count for
// laptop-scale runs while preserving the partition COUNT — pass 1.0 for the
// paper-scale dataset.
func GridDataset(taxa, sites, partLen int, scale float64, seed int64) (*Dataset, error) {
	if partLen > sites {
		return nil, fmt.Errorf("seqsim: partition length %d exceeds %d sites (the paper skips these combinations)", partLen, sites)
	}
	nParts := sites / partLen
	if nParts < 1 {
		nParts = 1
	}
	scaledPart := partLen
	if scale > 0 && scale < 1 {
		scaledPart = int(math.Max(4, float64(partLen)*scale))
	}
	partLens := make([]int, nParts)
	for i := range partLens {
		partLens[i] = scaledPart
	}
	name := fmt.Sprintf("d%d_%d", taxa, sites)
	return generate(name, taxa, partLens, alignment.DNA, seed)
}

// MixedDataset generates a partitioned dataset that interleaves dnaParts DNA
// partitions with aaParts protein partitions, each of partLen columns (scaled
// like GridDataset). Per-pattern kernel cost differs by ~25x between the two
// data types, which makes this the reference workload for comparing
// pattern-to-worker scheduling strategies by cost rather than by count.
// Partition lengths are jittered deterministically (0.6..1.4x) so that the
// per-partition remainders modulo the worker count differ, as they do in real
// phylogenomic partition schemes.
func MixedDataset(taxa, dnaParts, aaParts, partLen int, scale float64, seed int64) (*Dataset, error) {
	if dnaParts < 1 || aaParts < 1 {
		return nil, fmt.Errorf("seqsim: mixed dataset needs both DNA (%d) and AA (%d) partitions", dnaParts, aaParts)
	}
	scaledPart := partLen
	if scale > 0 && scale < 1 {
		scaledPart = int(math.Max(6, float64(partLen)*scale))
	}
	n := dnaParts + aaParts
	rng := rand.New(numeric.NewSource(seed + 11))
	partLens := make([]int, n)
	types := make([]alignment.DataType, n)
	for i := range partLens {
		jitter := 0.6 + 0.8*rng.Float64()
		partLens[i] = int(math.Max(4, float64(scaledPart)*jitter))
		types[i] = alignment.DNA
	}
	// Deterministic interleaving: spread AA partitions evenly across the list
	// so neither alphabet clusters at one end of the global pattern space.
	for k := 0; k < aaParts; k++ {
		pos := (k*n + n/2) / aaParts % n
		for types[pos] == alignment.AA {
			pos = (pos + 1) % n
		}
		types[pos] = alignment.AA
	}
	name := fmt.Sprintf("mix%d_%dd%da", taxa, dnaParts, aaParts)
	return generateTyped(name, taxa, partLens, types, seed, nil)
}

// RealWorldSpec describes the shape of one of the paper's real-world
// phylogenomic alignments.
type RealWorldSpec struct {
	Name        string
	Taxa        int
	Partitions  int
	TotalLen    int // distinct alignment patterns in the paper
	MinPart     int
	MaxPart     int
	Type        alignment.DataType
	GapFraction float64 // fraction of absent taxon-partition pairs (gappy data)
}

// The three real-world datasets of Section V, with the published geometry.
var (
	// R26Spec: viral protein alignment, 26 taxa, 26 partitions, 21,451
	// distinct patterns, partition lengths 173..2,695.
	R26Spec = RealWorldSpec{Name: "r26_21451", Taxa: 26, Partitions: 26,
		TotalLen: 21451, MinPart: 173, MaxPart: 2695, Type: alignment.AA, GapFraction: 0.15}
	// R24Spec: viral protein alignment, 24 taxa, 20 partitions, 16,916
	// distinct patterns.
	R24Spec = RealWorldSpec{Name: "r24_16916", Taxa: 24, Partitions: 20,
		TotalLen: 16916, MinPart: 173, MaxPart: 2695, Type: alignment.AA, GapFraction: 0.15}
	// R125Spec: mammalian DNA alignment, 125 taxa, 34 partitions, 19,839
	// distinct patterns, partition lengths 148..2,705.
	R125Spec = RealWorldSpec{Name: "r125_19839", Taxa: 125, Partitions: 34,
		TotalLen: 19839, MinPart: 148, MaxPart: 2705, Type: alignment.DNA, GapFraction: 0.2}
)

// RealWorldDataset generates a simulated stand-in with the published shape of
// one of the paper's real alignments (taxon count, partition count, min/max
// partition length, data type, gappy taxon sampling). scale shrinks all
// partition lengths proportionally (1.0 = full size).
func RealWorldDataset(spec RealWorldSpec, scale float64, seed int64) (*Dataset, error) {
	lens := partitionLengths(spec, seed)
	if scale > 0 && scale < 1 {
		for i := range lens {
			lens[i] = int(math.Max(4, float64(lens[i])*scale))
		}
	}
	ds, err := generate(spec.Name, spec.Taxa, lens, spec.Type, seed)
	if err != nil {
		return nil, err
	}
	if spec.GapFraction > 0 {
		// Regenerate with a gappy presence mask (Figure 2's data holes):
		// every partition keeps a random subset of taxa.
		rng := rand.New(numeric.NewSource(seed + 7))
		presence := make([][]bool, len(lens))
		for pi := range presence {
			mask := make([]bool, spec.Taxa)
			for tx := range mask {
				mask[tx] = rng.Float64() >= spec.GapFraction
			}
			// Keep at least 4 taxa so every partition stays informative.
			count := 0
			for _, v := range mask {
				if v {
					count++
				}
			}
			for tx := 0; count < 4 && tx < spec.Taxa; tx++ {
				if !mask[tx] {
					mask[tx] = true
					count++
				}
			}
			presence[pi] = mask
		}
		ds, err = generateWithPresence(spec.Name, spec.Taxa, lens, spec.Type, seed, presence)
		if err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// partitionLengths samples a deterministic length vector honoring the spec's
// partition count, min/max lengths, and total.
func partitionLengths(spec RealWorldSpec, seed int64) []int {
	rng := rand.New(numeric.NewSource(seed + 1))
	p := spec.Partitions
	lens := make([]float64, p)
	// Log-uniform between min and max, then pin the extremes and rescale the
	// interior to hit the published total.
	logMin, logMax := math.Log(float64(spec.MinPart)), math.Log(float64(spec.MaxPart))
	for i := range lens {
		lens[i] = math.Exp(logMin + rng.Float64()*(logMax-logMin))
	}
	lens[0] = float64(spec.MinPart)
	lens[1] = float64(spec.MaxPart)
	// Iteratively rescale the interior so the total matches.
	for iter := 0; iter < 60; iter++ {
		sum := 0.0
		for _, v := range lens {
			sum += v
		}
		if math.Abs(sum-float64(spec.TotalLen)) < 1 {
			break
		}
		f := (float64(spec.TotalLen) - lens[0] - lens[1]) / (sum - lens[0] - lens[1])
		for i := 2; i < p; i++ {
			lens[i] = math.Min(float64(spec.MaxPart), math.Max(float64(spec.MinPart), lens[i]*f))
		}
	}
	out := make([]int, p)
	total := 0
	for i, v := range lens {
		out[i] = int(math.Round(v))
		total += out[i]
	}
	// Exact integer fix-up on an interior partition.
	out[2] += spec.TotalLen - total
	if out[2] < spec.MinPart {
		out[2] = spec.MinPart
	}
	return out
}

func generate(name string, taxa int, partLens []int, dt alignment.DataType, seed int64) (*Dataset, error) {
	return generateWithPresence(name, taxa, partLens, dt, seed, nil)
}

func generateWithPresence(name string, taxa int, partLens []int, dt alignment.DataType, seed int64, presence [][]bool) (*Dataset, error) {
	types := make([]alignment.DataType, len(partLens))
	for i := range types {
		types[i] = dt
	}
	return generateTyped(name, taxa, partLens, types, seed, presence)
}

// generateTyped is the shared generator: one model per partition with the
// given data type, per-gene rate heterogeneity, and optional presence masks.
func generateTyped(name string, taxa int, partLens []int, types []alignment.DataType, seed int64, presence [][]bool) (*Dataset, error) {
	tr, err := tree.Random(TaxaNames(taxa), 1, tree.RandomOptions{Seed: seed, MeanBranchLength: 0.12})
	if err != nil {
		return nil, err
	}
	rng := rand.New(numeric.NewSource(seed + 3))
	models := make([]*model.Model, len(partLens))
	allDNA := true
	for i := range models {
		alpha := 0.3 + rng.Float64()*1.5 // per-gene rate heterogeneity
		if types[i] == alignment.DNA {
			freqs := make([]float64, 4)
			for k := range freqs {
				freqs[k] = 0.15 + rng.Float64()*0.2
			}
			ex := make([]float64, 6)
			for k := range ex {
				ex[k] = 0.3 + rng.Float64()*3
			}
			ex[5] = 1
			m, err := model.GTR(freqs, ex, 4, alpha)
			if err != nil {
				return nil, err
			}
			models[i] = m
		} else {
			allDNA = false
			m, err := model.SYN20(4, alpha)
			if err != nil {
				return nil, err
			}
			models[i] = m
		}
	}
	// Unique columns are only enforced where the state space allows it (the
	// paper's simulated grid); tiny scaled partitions on few taxa could
	// otherwise exhaust the column space.
	unique := allDNA && taxa >= 10
	a, parts, err := Simulate(tr, models, partLens, Options{
		Seed:          seed + 5,
		UniqueColumns: unique,
		Presence:      presence,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Alignment: a, Parts: parts, SeedTree: tr}, nil
}
