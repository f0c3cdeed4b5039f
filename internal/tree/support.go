package tree

import "fmt"

// Bootstrap support machinery: NNI candidate topologies and the
// split-frequency aggregator that turns replicate winner trees into
// per-branch support values (newick.go's one writer labels them). The
// bootstrap pipeline (see phylo.Analysis.Bootstrap) scores a fixed candidate
// set — the ML tree plus its NNI neighborhood — under every replicate's
// weight vector in one batched sweep, feeds each replicate's winning topology
// to a SupportCounter, and reads the ML tree's per-branch support off the
// accumulated split frequencies.

// Clone returns a deep copy of the tree: same taxa and slot count, mirrored
// connections and independent branch-length slices, with every X flag clear
// (CopyTopologyFrom).
func (t *Tree) Clone() (*Tree, error) {
	c, err := New(t.Names, t.ZSlots)
	if err != nil {
		return nil, err
	}
	if err := c.CopyTopologyFrom(t); err != nil {
		return nil, err
	}
	return c, nil
}

// nniSwap applies one nearest-neighbor interchange across the internal
// branch at record p (both ends must be inner): the subtree behind p.Next
// (or p.Next.Next when second is set) trades places with the subtree behind
// p.Back.Next. Each moved subtree keeps its own branch lengths — the branch
// travels with the child — so the move changes topology only.
func nniSwap(p *Node, second bool) {
	pn := p.Next
	if second {
		pn = p.Next.Next
	}
	qn := p.Back.Next
	a, za := pn.Back, pn.Z
	c, zc := qn.Back, qn.Z
	Connect(pn, c, zc)
	Connect(qn, a, za)
}

// NNICandidates returns copies of t with every nearest-neighbor interchange
// applied, two per internal branch — the 2(n-3) topologies one rearrangement
// away. Each candidate has all CLV orientation flags clear (Clone), so its
// likelihood state is rebuilt from scratch. The receiver is never modified.
func (t *Tree) NNICandidates() ([]*Tree, error) {
	var out []*Tree
	for _, b := range t.Branches() {
		if b.IsTip() || b.Back.IsTip() {
			continue
		}
		for variant := 0; variant < 2; variant++ {
			c, err := t.Clone()
			if err != nil {
				return nil, err
			}
			nniSwap(c.records[b.ID], variant == 1)
			if err := c.Validate(); err != nil {
				return nil, fmt.Errorf("tree: NNI across record %d produced an invalid tree: %w", b.ID, err)
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// SupportCounter accumulates split frequencies over a stream of replicate
// trees and reads them back as per-branch support values on any reference
// tree over the same taxa. Splits are identified by the canonical SplitKey,
// so a replicate supports a reference branch exactly when its winning
// topology induces the same bipartition of the taxa.
type SupportCounter struct {
	numTips int
	total   int
	counts  map[string]int
}

// NewSupportCounter returns an empty counter for trees over numTips taxa.
func NewSupportCounter(numTips int) *SupportCounter {
	return &SupportCounter{numTips: numTips, counts: make(map[string]int)}
}

// Add counts one replicate tree's non-trivial splits. Trees over a different
// taxon count are rejected.
func (sc *SupportCounter) Add(t *Tree) error {
	if t.NumTips() != sc.numTips {
		return fmt.Errorf("tree: support counter is for %d taxa, replicate tree has %d", sc.numTips, t.NumTips())
	}
	for key := range t.Bipartitions() { //plk:allow(maprange) commutative int counts; order-free
		sc.counts[key]++
	}
	sc.total++
	return nil
}

// Total reports how many replicate trees have been added.
func (sc *SupportCounter) Total() int { return sc.total }

// Support maps the counter's accumulated frequencies onto a reference tree:
// for every non-trivial split of ref, the fraction of added replicates whose
// tree contained that split (keyed by canonical split key, values in [0, 1]).
// Zero replicates yields all-zero supports.
func (sc *SupportCounter) Support(ref *Tree) (map[string]float64, error) {
	if ref.NumTips() != sc.numTips {
		return nil, fmt.Errorf("tree: support counter is for %d taxa, reference tree has %d", sc.numTips, ref.NumTips())
	}
	out := make(map[string]float64, sc.numTips-3)
	for key := range ref.Bipartitions() { //plk:allow(maprange) fills a keyed map; no ordered output
		if sc.total == 0 {
			out[key] = 0
			continue
		}
		out[key] = float64(sc.counts[key]) / float64(sc.total)
	}
	return out, nil
}
