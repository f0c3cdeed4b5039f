package tree

import (
	"strings"
	"testing"
)

// nniCandidates returns copies of t with each of its NNI moves applied, in
// NNIMoves' order.
func nniCandidates(t *testing.T, tr *Tree) []*Tree {
	t.Helper()
	var out []*Tree
	for _, m := range tr.NNIMoves() {
		c, err := tr.Clone()
		if err != nil {
			t.Fatal(err)
		}
		c.ApplyNNI(m)
		out = append(out, c)
	}
	return out
}

// TestNNICandidates checks the NNI neighborhood the move list spans: 2(n-3)
// moves, every candidate structurally valid, exactly RF distance 2 from the
// origin (one split swapped), no candidate equal to the origin, the two
// variants of one branch distinct, and each move undone by applying it again
// in place, down to the branch-length slices.
func TestNNICandidates(t *testing.T) {
	for _, n := range []int{4, 7, 12} {
		tr, err := Random(names(n), 1, RandomOptions{Seed: int64(10 + n)})
		if err != nil {
			t.Fatal(err)
		}
		before := WriteNewick(tr, 0)
		cands := nniCandidates(t, tr)
		if want := 2 * (n - 3); len(cands) != want {
			t.Fatalf("n=%d: %d NNI candidates, want %d", n, len(cands), want)
		}
		for i, c := range cands {
			if err := c.Validate(); err != nil {
				t.Fatalf("candidate %d invalid: %v", i, err)
			}
			d, err := RobinsonFoulds(tr, c)
			if err != nil {
				t.Fatal(err)
			}
			if d != 2 {
				t.Fatalf("candidate %d at RF distance %d from origin, want 2", i, d)
			}
		}
		// The two variants across one branch must differ from each other.
		for i := 0; i+1 < len(cands); i += 2 {
			d, err := RobinsonFoulds(cands[i], cands[i+1])
			if err != nil {
				t.Fatal(err)
			}
			if d == 0 {
				t.Fatalf("branch %d: both NNI variants are the same topology", i/2)
			}
		}
		backs := make([]*Node, len(tr.Records()))
		zs := make([]*float64, len(tr.Records()))
		for i, r := range tr.Records() {
			backs[i], zs[i] = r.Back, &r.Z[0]
		}
		for i, m := range tr.NNIMoves() {
			p := tr.ApplyNNI(m)
			if p.ID != m.Branch || WriteNewick(tr, 0) != WriteNewick(cands[i], 0) {
				t.Fatalf("move %d in place: branch %d, tree %s; want branch %d, tree %s", i, p.ID, WriteNewick(tr, 0), m.Branch, WriteNewick(cands[i], 0))
			}
			tr.ApplyNNI(m)
			for j, r := range tr.Records() {
				if r.Back != backs[j] || &r.Z[0] != zs[j] {
					t.Fatalf("move %d applied twice left record %d changed", i, j)
				}
			}
		}
		if WriteNewick(tr, 0) != before {
			t.Fatal("the moves applied twice changed the origin tree")
		}
	}
}

// TestNNIPreservesBranchLengths pins the "branch travels with the child"
// rule: the multiset of branch lengths is invariant under any NNI move.
func TestNNIPreservesBranchLengths(t *testing.T) {
	tr, err := Random(names(9), 1, RandomOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range tr.Branches() {
		SetBranchLength(b, 0, 0.01*float64(i+1))
	}
	lengths := func(x *Tree) map[float64]int {
		out := make(map[float64]int)
		for _, b := range x.Branches() {
			out[b.Z[0]]++
		}
		return out
	}
	want := lengths(tr)
	for i, c := range nniCandidates(t, tr) {
		got := lengths(c)
		for v, k := range want {
			if got[v] != k {
				t.Fatalf("candidate %d: branch length %v occurs %d times, want %d", i, v, got[v], k)
			}
		}
	}
}

// TestRestoreBranchLengths: lengths that moved come back from the snapshot,
// a restored branch clears exactly what ClearXAt at its two ends clears, and
// a restore that finds nothing moved touches no flag.
func TestRestoreBranchLengths(t *testing.T) {
	tr, err := Random(names(9), 2, RandomOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tr.Clone()
	if err != nil {
		t.Fatal(err)
	}
	before := WriteNewick(tr, 1)
	branches := tr.Branches()
	for i, b := range branches {
		tr.ClearX()
		RootTraversal(nil, branches[(i+5)%len(branches)])
		flags := make([]bool, len(tr.Records()))
		for j, r := range tr.Records() {
			flags[j] = r.X
		}
		tr.RestoreBranchLengths(snap)
		for j, r := range tr.Records() {
			if r.X != flags[j] {
				t.Fatalf("branch %d: a restore with nothing moved changed record %d's flag", i, j)
			}
		}
		b.Z[1] = 0.5
		tr.RestoreBranchLengths(snap)
		if got := WriteNewick(tr, 1); got != before {
			t.Fatalf("branch %d: restored lengths %s, want %s", i, got, before)
		}
		for j, r := range tr.Records() {
			if want := flags[j] && !viewContains(r, b.Index) && !viewContains(r, b.Back.Index); r.X != want {
				t.Fatalf("branch %d: record %d has X=%v after the restore, want %v", i, j, r.X, want)
			}
		}
	}
}

// TestSupportCounter feeds a known mix of topologies and checks the split
// fractions read back on a reference tree.
func TestSupportCounter(t *testing.T) {
	// ((t0,t1),(t2,t3),t4-ish shapes over 5 taxa: a and b share the {t0,t1}
	// split; c supports neither of a's splits.
	a, err := ParseNewick("((t0:1,t1:1):1,(t2:1,t3:1):1,t4:1);", names(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseNewick("((t0:1,t1:1):1,(t2:1,t4:1):1,t3:1);", names(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseNewick("((t0:1,t2:1):1,(t1:1,t3:1):1,t4:1);", names(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSupportCounter(5)
	for _, rep := range []struct {
		tree *Tree
		n    int
	}{{a, 2}, {b, 1}, {c, 1}} {
		if err := sc.Add(rep.tree, rep.n); err != nil {
			t.Fatal(err)
		}
	}
	if sc.Total() != 4 {
		t.Fatalf("total %d, want 4", sc.Total())
	}
	sup, err := sc.Support(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 2 {
		t.Fatalf("%d supported splits on a 5-taxon reference, want 2", len(sup))
	}
	// {t0,t1} appears in a, a, b -> 3/4; {t2,t3} only in a, a -> 2/4.
	want := map[string]float64{"2,3": 0.5, "2,3,4": 0.75}
	for key, frac := range sup {
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected split key %q", key)
		}
		if frac != w {
			t.Fatalf("split %q support %v, want %v", key, frac, w)
		}
	}
	// Mismatched taxon counts are rejected.
	six, _ := Random(names(6), 1, RandomOptions{Seed: 3})
	if err := sc.Add(six, 1); err == nil {
		t.Fatal("6-taxon replicate accepted by 5-taxon counter")
	}
	if _, err := sc.Support(six); err == nil {
		t.Fatal("6-taxon reference accepted by 5-taxon counter")
	}
}

// TestWriteNewickSupport checks the annotated writer: labels land on internal
// nodes as integer percents, the output reparses to the same topology, and an
// empty support map degrades to the plain writer's shape.
func TestWriteNewickSupport(t *testing.T) {
	tr, err := ParseNewick("((t0:1,t1:1):1,(t2:1,t3:1):1,t4:1);", names(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSupportCounter(5)
	if err := sc.Add(tr, 4); err != nil {
		t.Fatal(err)
	}
	sup, err := sc.Support(tr)
	if err != nil {
		t.Fatal(err)
	}
	s := WriteNewickSupport(tr, 0, sup)
	if !strings.Contains(s, ")100:") {
		t.Fatalf("expected 100%% support labels in %q", s)
	}
	back, err := ParseNewick(s, names(5), 1)
	if err != nil {
		t.Fatalf("support-annotated newick does not reparse: %v", err)
	}
	if d, _ := RobinsonFoulds(tr, back); d != 0 {
		t.Fatalf("support-annotated newick changed topology (RF %d)", d)
	}
	plain := WriteNewickSupport(tr, 0, nil)
	if plain != WriteNewick(tr, 0) {
		t.Fatalf("nil support map should match WriteNewick: %q vs %q", plain, WriteNewick(tr, 0))
	}
}

// TestCloneIndependence pins Clone's deep-copy contract: mutating the copy's
// branch lengths or topology leaves the original untouched.
func TestCloneIndependence(t *testing.T) {
	tr, err := Random(names(8), 1, RandomOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	before := WriteNewick(tr, 0)
	cp, err := tr.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if WriteNewick(cp, 0) != before {
		t.Fatal("clone differs from original")
	}
	// Random and Clone cut branch lengths from one array: an append to one
	// branch's slice must not reach its neighbour's.
	for _, tc := range []*Tree{tr, cp} {
		for _, b := range tc.Branches() {
			_ = append(b.Z, 7.5)
		}
		if WriteNewick(tc, 0) != before {
			t.Fatal("an append to one branch's lengths changed another's")
		}
	}
	for _, b := range cp.Branches() {
		SetBranchLength(b, 0, 7.5)
	}
	for _, b := range cp.Branches() {
		if !b.IsTip() && !b.Back.IsTip() {
			nniSwap(b, false)
			break
		}
	}
	if WriteNewick(tr, 0) != before {
		t.Fatal("mutating the clone changed the original")
	}
}
