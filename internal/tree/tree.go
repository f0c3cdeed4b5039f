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

	records []*Node // every record, for iteration/validation
	nextID  int
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
	for i := 0; i < n; i++ {
		tip := &Node{ID: t.nextID, Index: i}
		t.nextID++
		t.Tips = append(t.Tips, tip)
		t.records = append(t.records, tip)
	}
	for i := 0; i < n-2; i++ {
		idx := n + i
		a := &Node{ID: t.nextID + 0, Index: idx}
		b := &Node{ID: t.nextID + 1, Index: idx}
		c := &Node{ID: t.nextID + 2, Index: idx}
		t.nextID += 3
		a.Next, b.Next, c.Next = b, c, a
		t.Inner = append(t.Inner, a)
		t.records = append(t.records, a, b, c)
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

// ConnectDefault joins two records with a fresh default-length branch sized
// for this tree's slot count.
func (t *Tree) ConnectDefault(a, b *Node) { Connect(a, b, t.NewZ()) }

// SetBranchLength sets slot k of the branch at record p (both sides observe
// the update because the slice is shared).
func SetBranchLength(p *Node, k int, v float64) { p.Z[k] = v }

// OrientX marks p as the record holding the valid CLV of its node.
func OrientX(p *Node) {
	if p.IsTip() {
		return
	}
	p.X = true
	p.Next.X = false
	p.Next.Next.X = false
}

// ClearX invalidates all CLV orientation flags (e.g. after a model change
// that requires a full re-traversal).
func (t *Tree) ClearX() {
	for _, r := range t.records {
		r.X = false
	}
}

// ClearXAt is the one rule that keeps the X flags true across a topology
// edit at v's node (a prune, an insertion, a restore): it clears exactly the
// flags whose view — the subtree behind the record, away from its Back —
// contains v. Every record of v's node sees v. Elsewhere the walk runs
// outward from v and stops at the first node whose flag already points back
// towards v: its view excludes v, and because every flag points towards the
// last traversal's root (the invariant each traversal leaves), so does every
// flag behind it. Flags it cannot reach stay set and stay valid.
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
	var out []*Node
	start := t.Tips[0]
	if start.Back == nil {
		return nil
	}
	seen := make(map[int]bool) // record IDs already emitted (either side)
	var walk func(p *Node)
	walk = func(p *Node) {
		// branch between p and p.Back
		if seen[p.ID] || seen[p.Back.ID] {
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

// Validate checks structural invariants: symmetric Back links, shared branch
// slices, intact triplets, full connectivity, and the 2n-3 branch count.
func (t *Tree) Validate() error {
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
	if got, want := len(t.Branches()), t.NumBranches(); got != want {
		return fmt.Errorf("tree: %d branches reachable, want %d", got, want)
	}
	// Every tip must be reachable.
	reach := make(map[int]bool)
	var walk func(p *Node)
	walk = func(p *Node) {
		if reach[p.ID] {
			return
		}
		reach[p.ID] = true
		if !p.IsTip() {
			walk(p.Next.Back)
			walk(p.Next.Next.Back)
		}
	}
	walk(t.Tips[0])
	walk(t.Tips[0].Back)
	for _, tip := range t.Tips {
		if !reach[tip.ID] {
			return fmt.Errorf("tree: tip %d (%s) unreachable", tip.Index, t.Names[tip.Index])
		}
	}
	return nil
}

// CopyTopologyFrom replaces t's connections and branch lengths with a copy of
// src's (both trees must share taxa and slot counts). Used by the search to
// checkpoint and restore the best tree.
func (t *Tree) CopyTopologyFrom(src *Tree) error {
	if len(src.Tips) != len(t.Tips) || src.ZSlots != t.ZSlots {
		return errors.New("tree: CopyTopologyFrom shape mismatch")
	}
	// Map src record IDs to t records. Records were allocated in the same
	// order, so IDs correspond positionally.
	byID := make(map[int]*Node, len(t.records))
	for _, r := range t.records {
		byID[r.ID] = r
	}
	// Reset all Back links, then mirror src's.
	for _, r := range t.records {
		r.Back = nil
		r.X = false
	}
	done := make(map[int]bool)
	for _, sr := range src.records {
		if sr.Back == nil || done[sr.ID] || done[sr.Back.ID] {
			continue
		}
		done[sr.ID] = true
		a, b := byID[sr.ID], byID[sr.Back.ID]
		if a == nil || b == nil {
			return errors.New("tree: CopyTopologyFrom record mismatch")
		}
		Connect(a, b, append([]float64(nil), sr.Z...))
	}
	for _, sr := range src.records {
		if sr.X {
			byID[sr.ID].X = true
		}
	}
	return nil
}
