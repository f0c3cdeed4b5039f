package tree

import "fmt"

// Bootstrap support machinery: NNI moves and the split-frequency aggregator
// that turns replicate winner trees into per-branch support values
// (newick.go's one writer labels them). The bootstrap pipeline (see
// phylo.Analysis.Bootstrap) scores a fixed candidate set — the ML tree plus
// its NNI neighborhood, each move applied in place and undone — under every
// replicate's weight vector in one batched sweep, feeds each distinct winning
// topology to a SupportCounter with its replicate count, and reads the ML
// tree's per-branch support off the accumulated split frequencies.

// Clone returns a deep copy of the tree: same taxa and slot count, mirrored
// connections and independent branch-length slices, with every X flag clear
// (CopyTopologyFrom). The bootstrap keeps one as the snapshot it restores
// the session's tree and branch lengths from.
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

// NNIMove names one nearest-neighbor interchange of a tree: the branch
// record it swaps across (both ends inner) and which of the two subtrees
// behind the record's node trades places (see nniSwap). Record IDs are
// stable across topology changes, so a move listed on a tree names the same
// swap on its clones.
type NNIMove struct {
	Branch int  // record ID of the swapped branch
	Second bool // swap the subtree behind Next.Next instead of Next
}

// NNIMoves lists t's 2(n-3) nearest-neighbor interchanges, the topologies
// one rearrangement away: two per internal branch, in Branches' order, the
// first variant first.
func (t *Tree) NNIMoves() []NNIMove {
	out := make([]NNIMove, 0, 2*(t.NumTips()-3))
	for _, b := range t.Branches() {
		if b.IsTip() || b.Back.IsTip() {
			continue
		}
		out = append(out, NNIMove{Branch: b.ID}, NNIMove{Branch: b.ID, Second: true})
	}
	return out
}

// ApplyNNI applies m to t in place and returns the swapped branch's record;
// applying m again undoes it. The caller owns the X flags: after either
// edit, ClearXAt at both ends of the returned branch clears every CLV the
// swap made stale.
func (t *Tree) ApplyNNI(m NNIMove) *Node {
	p := t.records[m.Branch]
	nniSwap(p, m.Second)
	return p
}

// RestoreBranchLengths copies src's branch lengths onto every branch of t
// whose lengths differ from them, and runs ClearXAt at both ends of each
// branch it changed, so no flag claims a CLV computed under the old length.
// t and src must have the same topology (the same Back link on every
// record), as a tree and its Clone do after every edit of one was undone.
func (t *Tree) RestoreBranchLengths(src *Tree) {
	for _, r := range t.records {
		if r.Back.ID < r.ID {
			continue
		}
		z := src.records[r.ID].Z
		for k, v := range z {
			if r.Z[k] != v {
				copy(r.Z, z)
				ClearXAt(r)
				ClearXAt(r.Back)
				break
			}
		}
	}
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

// Add counts the non-trivial splits of n replicates whose winning tree is t:
// a bootstrap adds each distinct winner once, with its replicate count.
// Trees over a different taxon count are rejected.
func (sc *SupportCounter) Add(t *Tree, n int) error {
	if t.NumTips() != sc.numTips {
		return fmt.Errorf("tree: support counter is for %d taxa, replicate tree has %d", sc.numTips, t.NumTips())
	}
	for key := range t.Bipartitions() { //plk:allow(maprange) commutative int counts; order-free
		sc.counts[key] += n
	}
	sc.total += n
	return nil
}

// Total reports how many replicates have been added.
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
