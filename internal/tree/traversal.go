package tree

// TraversalStep is one newview operation: recompute the CLV of inner node P
// (oriented towards P.Back) from the CLVs/tips behind Q = P.Next.Back and
// R = P.Next.Next.Back, across branch lengths Q.Z and R.Z.
type TraversalStep struct {
	P, Q, R *Node
}

// ComputeTraversal appends to steps the bottom-up list of newview steps
// required to make the CLV at record p valid, and returns the extended
// slice: a caller that passes its buffer back in allocates nothing once the
// buffer holds a whole traversal. Subtrees whose X orientation is already
// correct are not descended into — the paper's partial traversals after
// local topology changes ("the worker threads will only need to update 3-4
// inner likelihood vectors on average"); on a tree whose flags are all clear
// (ClearX) the list is the full post-order traversal of the subtree behind p.
//
// The X flags are updated eagerly: callers are expected to execute the
// returned steps immediately (the likelihood engine does).
func ComputeTraversal(steps []TraversalStep, p *Node) []TraversalStep {
	if p.IsTip() || p.X {
		return steps
	}
	q := p.Next.Back
	r := p.Next.Next.Back
	steps = ComputeTraversal(steps, q)
	steps = ComputeTraversal(steps, r)
	orientX(p)
	return append(steps, TraversalStep{P: p, Q: q, R: r})
}

// RootTraversal appends to steps the steps needed to evaluate the likelihood
// at the virtual root on branch (p, p.Back): both end CLVs must be valid and
// oriented towards the branch. The two ends' subtrees are disjoint, so a
// whole root traversal is at most one step per inner node.
func RootTraversal(steps []TraversalStep, p *Node) []TraversalStep {
	return ComputeTraversal(ComputeTraversal(steps, p), p.Back)
}
