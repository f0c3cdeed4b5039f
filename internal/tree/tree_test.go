package tree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

func TestNewSkeleton(t *testing.T) {
	tr, err := New(names(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTips() != 5 || len(tr.Inner) != 3 || tr.NumBranches() != 7 {
		t.Errorf("counts: tips=%d inner=%d branches=%d", tr.NumTips(), len(tr.Inner), tr.NumBranches())
	}
	// Triplet wiring.
	for _, in := range tr.Inner {
		if in.Next.Next.Next != in {
			t.Error("triplet not circular")
		}
		if in.IsTip() {
			t.Error("inner node reports IsTip")
		}
	}
	for _, tip := range tr.Tips {
		if !tip.IsTip() {
			t.Error("tip misclassified")
		}
	}
	if _, err := New(names(2), 1); err == nil {
		t.Error("expected error for 2 taxa")
	}
	if _, err := New(names(4), 0); err == nil {
		t.Error("expected error for 0 z-slots")
	}
}

func TestRandomTreeValid(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10, 50, 125} {
		tr, err := Random(names(n), 3, RandomOptions{Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := len(tr.Branches()); got != 2*n-3 {
			t.Errorf("n=%d: %d branches, want %d", n, got, 2*n-3)
		}
	}
}

func TestRandomTreeDeterministic(t *testing.T) {
	a, _ := Random(names(20), 1, RandomOptions{Seed: 7})
	b, _ := Random(names(20), 1, RandomOptions{Seed: 7})
	if WriteNewick(a, 0) != WriteNewick(b, 0) {
		t.Error("same seed must give the same tree")
	}
	c, _ := Random(names(20), 1, RandomOptions{Seed: 8})
	if WriteNewick(a, 0) == WriteNewick(c, 0) {
		t.Error("different seeds should give different trees (overwhelmingly)")
	}
}

func TestBranchSharingAndSetLength(t *testing.T) {
	tr, _ := Random(names(6), 4, RandomOptions{Seed: 1})
	br := tr.Branches()
	for _, p := range br {
		SetBranchLength(p, 2, 0.42)
		if p.Back.Z[2] != 0.42 {
			t.Fatal("branch length not shared with Back")
		}
	}
}

func TestNewickRoundTrip(t *testing.T) {
	for _, n := range []int{4, 7, 30} {
		tr, _ := Random(names(n), 1, RandomOptions{Seed: int64(n * 3)})
		s := WriteNewick(tr, 0)
		back, err := ParseNewick(s, names(n), 1)
		if err != nil {
			t.Fatalf("n=%d: parse failed: %v\n%s", n, err, s)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Round-trip again: serialized forms must agree (same splits, same
		// lengths, same canonical ordering from tip0 rooting).
		s2 := WriteNewick(back, 0)
		if s != s2 {
			t.Errorf("n=%d: newick round-trip mismatch:\n%s\n%s", n, s, s2)
		}
	}
}

func TestParseNewickRooted(t *testing.T) {
	// Rooted 4-taxon input gets unrooted; the two root branches fuse.
	s := "((t0:0.1,t1:0.2):0.05,(t2:0.3,t3:0.4):0.15);"
	tr, err := ParseNewick(s, names(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Branches()); got != 5 {
		t.Errorf("branches = %d, want 5", got)
	}
	// The fused central branch must have length 0.05+0.15 = 0.2.
	found := false
	for _, b := range tr.Branches() {
		if !b.IsTip() && !b.Back.IsTip() && abs(b.Z[0]-0.2) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Error("fused central branch with length 0.2 not found")
	}
}

func TestParseNewickTrifurcating(t *testing.T) {
	s := "(t0:0.1,t1:0.2,(t2:0.3,t3:0.4):0.5);"
	tr, err := ParseNewick(s, names(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Lengths replicate into all slots.
	for _, b := range tr.Branches() {
		if b.Z[0] != b.Z[1] {
			t.Error("parsed lengths must fill every slot")
		}
	}
}

func TestParseNewickErrors(t *testing.T) {
	cases := []string{
		"",                             // empty
		"t0:0.1;",                      // no parens
		"(t0:1,t1:1);",                 // unrooted pair fuses but then taxa missing
		"(t0:1,t1:1,t2:1,t3:1);",       // root with 4 children
		"((t0:1,t1:1,t2:1):1,t3:1);",   // internal multifurcation
		"(t0:1,t1:1,(t2:1,zz:1):1);",   // unknown taxon
		"(t0:1,t1:1,(t2:1,t0:1):1);",   // duplicate taxon
		"(t0:1,t1:1,(t2:1,t3:1):1)",    // missing semicolon
		"(t0:1,t1:1,(t2:1,t3:bad):1);", // bad length
		"(t0:1,t1:1,(t2:1,t3:1:1);",    // unbalanced
		strings.Repeat("(", 1<<20),     // nesting no 4-taxon tree has (and no stack survives unbounded)
	}
	for _, s := range cases {
		if _, err := ParseNewick(s, names(4), 1); err == nil {
			t.Errorf("expected parse error for %q", s)
		}
	}
}

func TestComputeTraversalFull(t *testing.T) {
	tr, _ := Random(names(8), 1, RandomOptions{Seed: 3})
	tr.ClearX()
	start := tr.Tips[0].Back
	steps := ComputeTraversal(nil, start)
	// Full traversal behind an inner node adjacent to a tip covers all n-2
	// inner nodes.
	if len(steps) != len(tr.Inner) {
		t.Errorf("full traversal has %d steps, want %d", len(steps), len(tr.Inner))
	}
	// Bottom-up: every step's children must be tips or already computed.
	seen := make(map[int]bool)
	for _, st := range steps {
		for _, ch := range []*Node{st.Q, st.R} {
			if !ch.IsTip() && !seen[ch.Index] {
				t.Fatal("traversal not bottom-up")
			}
		}
		seen[st.P.Index] = true
		if !st.P.X {
			t.Error("step target not oriented")
		}
	}
}

func TestComputeTraversalPartial(t *testing.T) {
	tr, _ := Random(names(8), 1, RandomOptions{Seed: 3})
	tr.ClearX()
	start := tr.Tips[0].Back
	buf := ComputeTraversal(nil, start)
	// Everything valid towards start: partial traversal is now empty.
	steps := ComputeTraversal(buf[:0], start)
	if len(steps) != 0 {
		t.Errorf("partial traversal after full should be empty, got %d", len(steps))
	}
	// Moving the virtual root one branch over requires only local updates:
	// the CLV at other is already valid, the far end needs one newview.
	other := start.Next.Back
	if !other.IsTip() {
		steps = RootTraversal(buf[:0], other)
		if len(steps) == 0 || len(steps) > 2 {
			t.Errorf("re-rooting one step away took %d newviews", len(steps))
		}
	}
	// RootTraversal covers both ends.
	tr.ClearX()
	steps = RootTraversal(buf[:1], tr.Tips[0].Back)
	if len(steps) != 1+len(tr.Inner) || steps[0] != buf[0] {
		t.Errorf("root traversal appended %d steps after the kept one, want %d", len(steps)-1, len(tr.Inner))
	}
	// A buffer that holds a whole traversal is reused, not regrown.
	if n := testing.AllocsPerRun(10, func() { tr.ClearX(); RootTraversal(buf[:0], tr.Tips[0].Back) }); n != 0 {
		t.Errorf("root traversal into a full-size buffer allocates %v times", n)
	}
}

func TestCopyTopologyFrom(t *testing.T) {
	src, _ := Random(names(12), 2, RandomOptions{Seed: 5})
	dst, _ := Random(names(12), 2, RandomOptions{Seed: 6})
	RootTraversal(nil, src.Tips[0].Back)
	RootTraversal(nil, dst.Tips[3].Back)
	if err := dst.CopyTopologyFrom(src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Validate(); err != nil {
		t.Fatal(err)
	}
	// Neither src's flags nor dst's own survive: they describe CLVs of
	// whatever scored those trees.
	for _, r := range dst.Records() {
		if r.X {
			t.Fatalf("record %d keeps an X flag across CopyTopologyFrom", r.ID)
		}
	}
	if WriteNewick(src, 1) != WriteNewick(dst, 1) {
		t.Error("copied tree differs")
	}
	// Branch slices must be independent.
	srcBr := src.Branches()
	SetBranchLength(srcBr[0], 0, 0.777)
	for _, b := range dst.Branches() {
		if b.Z[0] == 0.777 {
			t.Error("CopyTopologyFrom must deep-copy branch lengths")
		}
	}
	bad, _ := New(names(5), 2)
	if err := bad.CopyTopologyFrom(src); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tr, _ := Random(names(5), 1, RandomOptions{Seed: 1})
	// Break a Back link.
	b := tr.Branches()[0]
	saved := b.Back
	b.Back = nil
	if err := tr.Validate(); err == nil {
		t.Error("expected validation error for nil Back")
	}
	b.Back = saved
	// Unshare a Z slice.
	b.Z = append([]float64(nil), b.Z...)
	if err := tr.Validate(); err == nil {
		t.Error("expected validation error for unshared Z")
	}
}

func TestClearXAndOrient(t *testing.T) {
	tr, _ := Random(names(6), 1, RandomOptions{Seed: 2})
	in := tr.Inner[0]
	orientX(in.Next)
	if !in.Next.X || in.X || in.Next.Next.X {
		t.Error("orientX must set exactly one record")
	}
	tr.ClearX()
	for _, r := range tr.Records() {
		if r.X {
			t.Error("ClearX left a flag set")
		}
	}
	// orientX on a tip is a no-op.
	orientX(tr.Tips[0])
	if tr.Tips[0].X {
		t.Error("tips must not carry X")
	}
}

// viewContains reports whether node index idx lies in r's view: r's own node
// or anything behind r.Next and r.Next.Next, away from r.Back.
func viewContains(r *Node, idx int) bool {
	if r.Index == idx {
		return true
	}
	if r.IsTip() {
		return false
	}
	for _, q := range []*Node{r.Next.Back, r.Next.Next.Back} {
		if viewContains(q, idx) {
			return true
		}
	}
	return false
}

// TestClearXAtClearsExactlyViewsContainingV: with every flag pointing towards
// one root branch (the state a traversal leaves), ClearXAt at any inner node
// clears exactly the flags whose view contains that node — also when another
// node carries no flag at all, which the walk must pass through.
func TestClearXAtClearsExactlyViewsContainingV(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		tr, err := Random(names(4+int(seed)), 1, RandomOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		branches := tr.Branches()
		for _, v := range tr.Inner {
			for _, unflag := range []*Node{nil, tr.Inner[rng.Intn(len(tr.Inner))]} {
				tr.ClearX()
				RootTraversal(nil, branches[rng.Intn(len(branches))])
				if unflag != nil {
					unflag.X, unflag.Next.X, unflag.Next.Next.X = false, false, false
				}
				before := map[*Node]bool{}
				for _, r := range tr.Records() {
					before[r] = r.X
				}
				ClearXAt(v.Next)
				for _, r := range tr.Records() {
					if want := before[r] && !viewContains(r, v.Index); r.X != want {
						t.Fatalf("seed %d, edit at node %d: record %d of node %d has X=%v, want %v",
							seed, v.Index, r.ID, r.Index, r.X, want)
					}
				}
			}
		}
	}
}

// Property: random trees of random size are structurally valid and their
// newick serialization parses back to the same canonical form.
func TestRandomTreeQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		tr, err := Random(names(n), 1, RandomOptions{Seed: seed})
		if err != nil || tr.Validate() != nil {
			return false
		}
		s := WriteNewick(tr, 0)
		back, err := ParseNewick(s, names(n), 1)
		if err != nil {
			return false
		}
		return WriteNewick(back, 0) == s && strings.Count(s, "(") == n-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
