// Package seqsim is the reproduction's Seq-Gen equivalent: it simulates
// molecular sequence evolution along a phylogenetic tree under the same
// time-reversible models the likelihood kernel evaluates, and provides
// generators for every dataset of the paper's Section V — the 12 simulated
// DNA alignments (d10_5000 ... d100_50000) and shape-faithful stand-ins for
// the three real-world phylogenomic alignments (r26_21451, r24_16916,
// r125_19839), per DESIGN.md substitution #2.
//
// Simulation is a deterministic scope: equal seeds must yield equal
// alignments, so all randomness flows through a locally seeded *rand.Rand.
//
//plk:deterministic
package seqsim

import (
	"errors"
	"fmt"
	"math/rand"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/numeric"
	"phylo/internal/tree"
)

// Options configures a simulation.
type Options struct {
	// Seed drives all randomness; equal seeds give equal alignments.
	Seed int64
	// UniqueColumns resamples duplicate columns so that every column is a
	// distinct pattern (m = m'), as the paper ensures for its simulated
	// datasets. Duplicate detection is per partition.
	UniqueColumns bool
	// Presence optionally marks, per partition and taxon, whether the taxon
	// has data (false writes gaps) — the "gappy" phylogenomic structure of
	// Figure 2. nil means all present.
	Presence [][]bool
}

// Simulate evolves one partition of length sites along the tree under m,
// using branch-length slot `slot`, and writes characters into out
// (out[taxon][siteOffset+k]). Gamma categories are drawn uniformly per site.
func simulatePartition(tr *tree.Tree, m *model.Model, slot, sites, siteOffset int, out [][]byte, rng *rand.Rand, unique bool, present []bool) error {
	s := m.States
	dt := m.Type
	// Cache one P matrix per (record, category); records are identified by ID.
	type key struct{ id, cat int }
	pcache := make(map[key][]float64)
	pmat := func(rec *tree.Node, cat int) []float64 {
		k := key{rec.ID, cat}
		if pm, ok := pcache[k]; ok {
			return pm
		}
		pm := make([]float64, s*s)
		m.PMatrix(m.CatRates[cat]*rec.Z[slot], pm)
		pcache[k] = pm
		return pm
	}
	drawFrom := func(probs []float64) int {
		u := rng.Float64()
		acc := 0.0
		for i, p := range probs {
			acc += p
			if u < acc {
				return i
			}
		}
		return len(probs) - 1
	}
	step := func(state int, pm []float64) int {
		return drawFrom(pm[state*s : (state+1)*s])
	}

	root := tr.Tips[0].Back
	if root.IsTip() {
		return errors.New("seqsim: degenerate tree")
	}
	column := make([]byte, tr.NumTips())
	var evolve func(rec *tree.Node, state, cat int)
	evolve = func(rec *tree.Node, state, cat int) {
		// rec is a record of the current node; propagate into the subtrees
		// behind its other two records.
		for _, child := range []*tree.Node{rec.Next, rec.Next.Next} {
			cs := step(state, pmat(child, cat))
			b := child.Back
			if b.IsTip() {
				column[b.Index] = byte(cs)
			} else {
				evolve(b, cs, cat)
			}
		}
	}

	seen := make(map[string]bool, sites)
	const maxResample = 2000
	for site := 0; site < sites; site++ {
		ok := false
		for attempt := 0; attempt < maxResample; attempt++ {
			cat := rng.Intn(m.NumCats)
			state := drawFrom(m.Freqs)
			// The virtual root sits at the inner node `root`: evolve into
			// its three incident subtrees.
			t0 := step(state, pmat(tr.Tips[0], cat))
			column[0] = byte(t0)
			evolve(root, state, cat)
			if !unique {
				ok = true
				break
			}
			k := string(column)
			if !seen[k] {
				seen[k] = true
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("seqsim: could not generate %d unique columns (alphabet too small for %d taxa?)", sites, tr.NumTips())
		}
		for tx := 0; tx < tr.NumTips(); tx++ {
			if present != nil && !present[tx] {
				out[tx][siteOffset+site] = '-'
			} else {
				out[tx][siteOffset+site] = alignment.StateChar(dt, int(column[tx]))
			}
		}
	}
	return nil
}

// Simulate generates a partitioned alignment along tr: partition i has
// partLens[i] columns evolved under models[i] with branch-length slot
// min(i, tr.ZSlots-1). It returns the alignment and the partition scheme.
func Simulate(tr *tree.Tree, models []*model.Model, partLens []int, opts Options) (*alignment.Alignment, []alignment.Partition, error) {
	if len(models) != len(partLens) {
		return nil, nil, fmt.Errorf("seqsim: %d models for %d partitions", len(models), len(partLens))
	}
	if opts.Presence != nil && len(opts.Presence) != len(partLens) {
		return nil, nil, errors.New("seqsim: presence mask count mismatch")
	}
	total := 0
	for i, l := range partLens {
		if l <= 0 {
			return nil, nil, fmt.Errorf("seqsim: partition %d has non-positive length %d", i, l)
		}
		total += l
	}
	n := tr.NumTips()
	seqs := make([][]byte, n)
	for i := range seqs {
		seqs[i] = make([]byte, total)
	}
	rng := rand.New(numeric.NewSource(opts.Seed))
	parts := make([]alignment.Partition, len(partLens))
	offset := 0
	for i, l := range partLens {
		slot := i
		if slot >= tr.ZSlots {
			slot = tr.ZSlots - 1
		}
		var present []bool
		if opts.Presence != nil {
			present = opts.Presence[i]
		}
		if err := simulatePartition(tr, models[i], slot, l, offset, seqs, rng, opts.UniqueColumns, present); err != nil {
			return nil, nil, err
		}
		sites := make([]int, l)
		for k := range sites {
			sites[k] = offset + k
		}
		parts[i] = alignment.Partition{
			Name:  fmt.Sprintf("gene%d", i),
			Type:  models[i].Type,
			Sites: sites,
		}
		offset += l
	}
	a, err := alignment.New(append([]string(nil), tr.Names...), seqs)
	if err != nil {
		return nil, nil, err
	}
	return a, parts, nil
}

// TaxaNames returns the canonical taxon labels used by the dataset
// generators ("taxon0", "taxon1", ...).
func TaxaNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("taxon%d", i)
	}
	return out
}
