package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// terminalCounts is what one call cost its executor and observer: regions,
// summed ops, and the per-worker patterns, scalings and span cases.
type terminalCounts struct {
	regions int64
	ops     float64
	obs     goldenObserver
}

// TestTerminalValidatesItsBranch: Evaluate and BranchDerivatives run the
// traversal their branch needs in their own region. It starts from stale
// CLVs — a fresh session, and a scored session whose branch at a random
// record was lengthened and cleared with ClearXAt — on every executor shape
// and both backends:
//
//   - Evaluate alone gives the bits, ops, patterns, scalings and span counts
//     of TraverseRoot + Evaluate, in one region instead of two;
//   - a BranchDerivatives narrowed to one partition still validates every
//     partition's CLVs, so the Evaluate after it runs no step (no span
//     counter moves) and scores the from-scratch bits.
func TestTerminalValidatesItsBranch(t *testing.T) {
	execs := []struct {
		name    string
		threads int
		mk      func() (*parallel.Pool, error)
	}{
		{"sequential", 1, func() (*parallel.Pool, error) { return parallel.NewSequential(), nil }},
		{"sim3", 3, func() (*parallel.Pool, error) { return parallel.NewSim(3) }},
		{"pool3", 3, func() (*parallel.Pool, error) { return parallel.NewPool(3) }},
	}
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		for _, ex := range execs {
			for _, edited := range []bool{false, true} {
				label := fmt.Sprintf("%v %s edited=%v", backend, ex.name, edited)
				rng := rand.New(rand.NewSource(17))
				pick := -1
				// open starts a session whose CLVs at the far branch are stale.
				open := func() (*Engine, func() terminalCounts) {
					exec, err := ex.mk()
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(exec.Close)
					o := &goldenObserver{}
					exec.SetObserver(o)
					eng := batchEngine(t, backend, 4, exec, ex.threads, Options{Specialize: true}, nil)
					t.Cleanup(eng.Release)
					if edited {
						eng.LogLikelihood(nil)
						if pick < 0 {
							pick = rng.Intn(3 * len(eng.Tree.Inner))
						}
						v := eng.Tree.Inner[pick/3]
						for i := 0; i < pick%3; i++ {
							v = v.Next
						}
						tree.SetBranchLength(v, 0, 0.37)
						tree.ClearXAt(v)
					}
					*o = goldenObserver{}
					st := exec.Stats()
					r0, ops0 := st.Regions, st.TotalOps
					since := func() terminalCounts {
						c := terminalCounts{st.Regions - r0, st.TotalOps - ops0, *o}
						r0, ops0, *o = st.Regions, st.TotalOps, goldenObserver{}
						return c
					}
					return eng, since
				}

				pair, pairSince := open()
				p := farBranch(pair.Tree)
				pair.TraverseRoot(p)
				want, _ := evaluate1(pair, p, nil)
				wantC := pairSince()

				one, oneSince := open()
				got, _ := evaluate1(one, farBranch(one.Tree), nil)
				gotC := oneSince()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: Evaluate alone %v, TraverseRoot + Evaluate %v", label, got, want)
				}
				if wantC.regions != 2 || gotC.regions != 1 {
					t.Errorf("%s: %d regions alone, %d as a pair; want 1 and 2", label, gotC.regions, wantC.regions)
				}
				if gotC.ops != wantC.ops || gotC.obs != wantC.obs {
					t.Errorf("%s: Evaluate alone cost %+v, the pair %+v", label, gotC, wantC)
				}
				if wantC.obs.patterns == 0 {
					t.Errorf("%s: the branch was valid already; nothing was tested", label)
				}

				sum, sumSince := open()
				q := farBranch(sum.Tree)
				sum.BranchDerivatives(q, make([]float64, sum.NumPartitions()), []bool{false, true}, nil, nil, nil, nil)
				sumSince()
				after, _ := evaluate1(sum, q, nil)
				if c := sumSince(); c.regions != 1 || c.obs != (goldenObserver{}) {
					t.Errorf("%s: Evaluate after a one-partition BranchDerivatives cost %+v; want one region and no step", label, c)
				}
				sum.Tree.ClearX()
				scratch, _ := evaluate1(sum, q, nil)
				if math.Float64bits(after) != math.Float64bits(scratch) || math.Float64bits(after) != math.Float64bits(want) {
					t.Errorf("%s: Evaluate after BranchDerivatives %v, from scratch %v, the pair %v", label, after, scratch, want)
				}
			}
		}
	}
}

// farBranch is the last inner/inner branch of tr's branch walk: both ends
// have a subtree to traverse.
func farBranch(tr *tree.Tree) *tree.Node {
	var far *tree.Node
	for _, b := range tr.Branches() {
		if !b.IsTip() && !b.Back.IsTip() {
			far = b
		}
	}
	return far
}
