// Package tree implements the unrooted binary tree substrate of the
// likelihood kernel using RAxML's "nodeptr triplet" representation: every
// inner node consists of three records arranged in a circular Next list, one
// per incident branch; Back links cross branches; branch lengths live in a
// slice shared by the two records of a branch (one slot per partition when
// per-partition branch lengths are in use, a single slot for joint estimates).
//
// The X flag marks, per inner node, the single record whose conditional
// likelihood vector (CLV) is currently valid: the CLV summarizes the subtree
// visible through the node's other two records, i.e. it is valid "towards"
// X's Back. Traversal descriptors (see traversal.go) list the newview
// operations needed to (re)establish validity for a chosen virtual root.
//
// Tree construction, traversal, and serialization are a deterministic scope:
// Newick output and traversal descriptors must be identical across runs.
//
//plk:deterministic
package tree

import (
	"errors"
	"fmt"
)

// DefaultBranchLength initializes new branches; it matches RAxML's default.
const DefaultBranchLength = 0.1

// MinBranchLen and MaxBranchLen bound every branch length in the system: the
// Newick parser, the random-tree generator, the SPR splices and the Newton
// optimizer all clamp to this one interval, so no layer can hand another a
// length it would clamp differently.
const (
	MinBranchLen = 1e-8
	MaxBranchLen = 64.0
)

// ClampBranchLen confines v to [MinBranchLen, MaxBranchLen].
func ClampBranchLen(v float64) float64 {
	if v < MinBranchLen {
		return MinBranchLen
	}
	if v > MaxBranchLen {
		return MaxBranchLen
	}
	return v
}

// Node is one record of the triplet representation. Tips have Next == nil
// and exactly one record; inner nodes have three records sharing an Index.
type Node struct {
	ID    int       // unique record id (stable across topology changes)
	Index int       // node index: tips 0..n-1, inner nodes n..2n-3
	Next  *Node     // circular triplet list (nil for tips)
	Back  *Node     // record at the far end of this record's branch
	Z     []float64 // branch lengths, one per slot; the same slice is shared with Back
	X     bool      // CLV orientation flag (meaningful on inner records only)
}

// IsTip reports whether the record belongs to a leaf.
func (n *Node) IsTip() bool { return n.Next == nil }

// Tree is an unrooted binary tree over NumTips labelled leaves.
type Tree struct {
	Names  []string // taxon names by tip index
	ZSlots int      // branch-length slots per branch (1 = joint, >=1 per-partition)

	Tips  []*Node // tip records, indexed by taxon
	Inner []*Node // first record of each inner node (use .Next to reach the others)

	records []*Node // every record, records[i].ID == i (tips first, then triplets)
}

// NumTips returns the leaf count.
func (t *Tree) NumTips() int { return len(t.Tips) }

// NumInner returns the inner-node count (n-2 when fully connected).
func (t *Tree) NumInner() int { return len(t.Inner) }

// NumBranches returns the branch count of a fully connected tree, 2n-3.
func (t *Tree) NumBranches() int { return 2*len(t.Tips) - 3 }

// New allocates an unconnected tree skeleton for the given taxa: one record
// per tip and three per inner node (n-2 inner nodes). Callers connect the
// records with Connect; RandomTree and ParseNewick do this for you.
func New(names []string, zSlots int) (*Tree, error) {
	n := len(names)
	if n < 3 {
		return nil, errors.New("tree: need at least 3 taxa")
	}
	if zSlots < 1 {
		return nil, errors.New("tree: need at least one branch-length slot")
	}
	t := &Tree{Names: append([]string(nil), names...), ZSlots: zSlots}
	// One array holds every record; record i has ID i, so an ID is an index
	// into records on every tree over the same taxa.
	nodes := make([]Node, n+3*(n-2))
	t.records = make([]*Node, len(nodes))
	for i := range nodes {
		nodes[i].ID = i
		t.records[i] = &nodes[i]
	}
	for i := 0; i < n; i++ {
		nodes[i].Index = i
	}
	t.Tips = t.records[:n:n]
	t.Inner = make([]*Node, n-2)
	for i := range t.Inner {
		a, b, c := &nodes[n+3*i], &nodes[n+3*i+1], &nodes[n+3*i+2]
		a.Index, b.Index, c.Index = n+i, n+i, n+i
		a.Next, b.Next, c.Next = b, c, a
		t.Inner[i] = a
	}
	return t, nil
}

// NewZ allocates a branch-length slice with every slot at the default length.
func (t *Tree) NewZ() []float64 {
	z := make([]float64, t.ZSlots)
	for i := range z {
		z[i] = DefaultBranchLength
	}
	return z
}

// Connect joins two records with a branch carrying lengths z (one per slot);
// pass nil for default lengths. Both records share the same slice, so a
// branch-length update through either side is seen by both.
func Connect(a, b *Node, z []float64) {
	a.Back = b
	b.Back = a
	if z == nil {
		// The zero ZSlots case cannot occur on trees built via New.
		z = []float64{DefaultBranchLength}
	}
	a.Z = z
	b.Z = z
}

// SetBranchLength sets slot k of the branch at record p (both sides observe
// the update because the slice is shared).
func SetBranchLength(p *Node, k int, v float64) { p.Z[k] = v }

// orientX marks p as the record holding the valid CLV of its node.
func orientX(p *Node) {
	if p.IsTip() {
		return
	}
	p.X = true
	p.Next.X = false
	p.Next.Next.X = false
}

// ClearX invalidates all CLV orientation flags, so the next root traversal
// lists every step. The likelihood engine clears the flags itself when its
// models moved or its last steps skipped a partition (rootSteps in
// internal/core), so no other caller needs to.
func (t *Tree) ClearX() {
	for _, r := range t.records {
		r.X = false
	}
}

// ClearXAt is the one rule that keeps the X flags true across a topology
// edit at v's node (a prune, an insertion, a restore, an NNI swap or its
// undo, a branch length put back): it clears exactly the flags whose view —
// the subtree behind the record, away from its Back — contains v. Every
// record of v's node sees v. Elsewhere the walk runs outward from v and
// stops at the first node whose flag already points back towards v: its
// view excludes v, and because every flag points towards the last
// traversal's root, so does every flag behind it. Flags it cannot reach
// stay set and stay valid. The early stop asks nothing of the caller: only a
// root traversal sets a flag (ComputeTraversal, one per node), and a root
// traversal leaves every flag pointing towards its root.
func ClearXAt(v *Node) {
	for p, i := v, 0; i < 3 && p != nil; p, i = p.Next, i+1 {
		p.X = false
		clearXFrom(p.Back)
	}
}

// clearXFrom clears the flags of q's node that point away from q.Back, and
// continues behind them, unless q itself is flagged (towards q.Back).
func clearXFrom(q *Node) {
	if q == nil || q.IsTip() || q.X {
		return
	}
	q.Next.X, q.Next.Next.X = false, false
	clearXFrom(q.Next.Back)
	clearXFrom(q.Next.Next.Back)
}

// Records returns all records (tips first, then inner triplets).
func (t *Tree) Records() []*Node { return t.records }

// Branches enumerates one record per branch of the connected component
// containing Tips[0], in deterministic depth-first order. For a valid tree it
// returns exactly 2n-3 records.
func (t *Tree) Branches() []*Node {
	var w branchWalk
	return w.branches(t, t.Tips[0])
}

// branchWalk is the scratch of a branch enumeration: a flag per record ID
// and an explicit stack, reused across walks of one tree.
type branchWalk struct {
	seen  []bool
	stack []*Node
	out   []*Node
}

// branches returns one record per branch reachable from start, in the
// pre-order of the depth-first walk that enters q.Next's subtree before
// q.Next.Next's (Random draws its attachment branch by index into this
// order). The result aliases w.out until the next walk.
func (w *branchWalk) branches(t *Tree, start *Node) []*Node {
	if w.seen == nil {
		w.seen = make([]bool, len(t.records))
		w.stack = make([]*Node, 0, len(t.Tips))
		w.out = make([]*Node, 0, t.NumBranches())
	} else {
		clear(w.seen)
	}
	w.out = w.out[:0]
	w.stack = append(w.stack[:0], start)
	for len(w.stack) > 0 {
		p := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if p.Back == nil || w.seen[p.ID] || w.seen[p.Back.ID] {
			continue
		}
		w.seen[p.ID] = true
		w.out = append(w.out, p)
		if q := p.Back; !q.IsTip() {
			w.stack = append(w.stack, q.Next.Next, q.Next)
		}
	}
	return w.out
}

// Validate checks structural invariants: symmetric Back links, shared branch
// slices, intact triplets, full connectivity, and the 2n-3 branch count.
func (t *Tree) Validate() error {
	var w branchWalk
	return t.validate(&w)
}

// validate is Validate on the caller's walk scratch.
func (t *Tree) validate(w *branchWalk) error {
	for _, r := range t.records {
		if r.Back == nil {
			return fmt.Errorf("tree: record %d (node %d) disconnected", r.ID, r.Index)
		}
		if r.Back.Back != r {
			return fmt.Errorf("tree: record %d has asymmetric Back link", r.ID)
		}
		if len(r.Z) != t.ZSlots {
			return fmt.Errorf("tree: record %d has %d z-slots, want %d", r.ID, len(r.Z), t.ZSlots)
		}
		if &r.Z[0] != &r.Back.Z[0] {
			return fmt.Errorf("tree: record %d does not share branch slice with Back", r.ID)
		}
		if !r.IsTip() {
			if r.Next == nil || r.Next.Next == nil || r.Next.Next.Next != r {
				return fmt.Errorf("tree: node %d triplet broken", r.Index)
			}
			if r.Next.Index != r.Index || r.Next.Next.Index != r.Index {
				return fmt.Errorf("tree: node %d triplet indices inconsistent", r.Index)
			}
		}
	}
	if got, want := len(w.branches(t, t.Tips[0])), t.NumBranches(); got != want {
		return fmt.Errorf("tree: %d branches reachable, want %d", got, want)
	}
	// Every tip must be reachable.
	reach := w.seen
	clear(reach)
	stack := append(w.stack[:0], t.Tips[0], t.Tips[0].Back)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[p.ID] {
			continue
		}
		reach[p.ID] = true
		if !p.IsTip() {
			stack = append(stack, p.Next.Back, p.Next.Next.Back)
		}
	}
	for _, tip := range t.Tips {
		if !reach[tip.ID] {
			return fmt.Errorf("tree: tip %d (%s) unreachable", tip.Index, t.Names[tip.Index])
		}
	}
	return nil
}

// CopyTopologyFrom replaces t's connections and branch lengths with a copy of
// src's (both trees must share taxa and slot counts) and clears every X flag:
// src's flags describe the CLVs of whatever engine scored src, not those of
// t's. So, as ClearXAt does for an in-place edit, it leaves no flag claiming
// a CLV nothing recomputed. The bootstrap uses it to restore the session's
// tree once its sweep ends, however it ends; neither it nor the search edits
// a topology through it.
func (t *Tree) CopyTopologyFrom(src *Tree) error {
	if len(src.Tips) != len(t.Tips) || src.ZSlots != t.ZSlots {
		return errors.New("tree: CopyTopologyFrom shape mismatch")
	}
	// Records were allocated in the same order, so an ID indexes both trees.
	// Each branch is copied once, from its lower-ID record, into one backing
	// array; the three-index slices keep an append on one branch's lengths
	// from reaching its neighbour's.
	z := make([]float64, len(src.records)/2*t.ZSlots)
	for _, r := range t.records {
		r.Back, r.X = nil, false
	}
	for _, sr := range src.records {
		if sr.Back == nil || sr.Back.ID < sr.ID {
			continue
		}
		if sr.Back.Back != sr {
			return errors.New("tree: CopyTopologyFrom source has an asymmetric Back link")
		}
		zb := z[:t.ZSlots:t.ZSlots]
		z = z[t.ZSlots:]
		copy(zb, sr.Z)
		Connect(t.records[sr.ID], t.records[sr.Back.ID], zb)
	}
	return nil
}
