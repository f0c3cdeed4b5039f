package tree

import (
	"fmt"
	"math/rand"
)

// RandomOptions configures random tree generation.
type RandomOptions struct {
	Seed int64
	// MeanBranchLength is the mean of the exponential branch-length
	// distribution; zero selects 0.1 (a realistic phylogenomic scale).
	MeanBranchLength float64
}

// Random generates an unrooted binary tree by stepwise random addition (the
// classic procedure used to produce RAxML starting trees and the paper's
// simulated "seed trees"): start from the unique 3-taxon topology, then
// attach each remaining taxon to a uniformly chosen existing branch. Branch
// lengths are exponentially distributed. The result is deterministic in the
// seed, which the paper relies on for reproducible experiments.
func Random(names []string, zSlots int, opts RandomOptions) (*Tree, error) {
	t, err := New(names, zSlots)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	mean := opts.MeanBranchLength
	if mean <= 0 {
		mean = 0.1
	}
	randZ := func() []float64 {
		z := make([]float64, zSlots)
		v := ClampBranchLen(rng.ExpFloat64() * mean)
		for k := range z {
			z[k] = v
		}
		return z
	}

	n := len(names)
	order := rng.Perm(n)
	center := t.Inner[0]
	Connect(center, t.Tips[order[0]], randZ())
	Connect(center.Next, t.Tips[order[1]], randZ())
	Connect(center.Next.Next, t.Tips[order[2]], randZ())

	for i := 3; i < n; i++ {
		branches := t.partialBranches(t.Tips[order[0]])
		target := branches[rng.Intn(len(branches))]
		v := t.Inner[i-2]
		// Split branch (target, target.Back): v.Next takes one side, ...
		a, b := target, target.Back
		zab := a.Z
		Connect(v.Next, a, zab)
		Connect(v.Next.Next, b, randZ())
		Connect(v, t.Tips[order[i]], randZ())
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tree: random generation produced invalid tree: %w", err)
	}
	return t, nil
}

// partialBranches enumerates branches of the (possibly still growing)
// connected component containing start.
func (t *Tree) partialBranches(start *Node) []*Node {
	var out []*Node
	seen := make(map[int]bool)
	var walk func(p *Node)
	walk = func(p *Node) {
		if p.Back == nil || seen[p.ID] || seen[p.Back.ID] {
			return
		}
		seen[p.ID] = true
		out = append(out, p)
		q := p.Back
		if q.IsTip() {
			return
		}
		walk(q.Next)
		walk(q.Next.Next)
	}
	walk(start)
	return out
}
