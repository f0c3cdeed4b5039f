package core

import (
	"fmt"
	"math/rand"
	"testing"

	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// TestCLVValidityRule: the engine alone keeps the X flags and the sumtable
// true (rootSteps). A random sequence of model changes through the models'
// own setters, masked and unmasked evaluations, derivative regions with and
// without the lnL lane, NNI swaps made in place under tree.ClearXAt (a
// splice) and topology copies to an NNI neighbour runs with no flag cleared
// by the test. After every evaluation at the canonical root its active
// partitions' bits, and for an unmasked one the total's, are those of a
// fresh session on clones, which computes every CLV from scratch. So are the
// d1, d2 and lane bits of every derivative region, at the same record. A
// derivative region that lists no step of its own costs exactly its
// derivative pass (opsDerivative a pattern) when it repeats the last
// derivative region's record and no region listed a step since, and
// otherwise exactly what the fresh session's projecting region costs; one
// that lists steps costs more than that. The
// sequence lands derivative regions at the last record again, at its Back,
// after an earlier region's steps, and after a splice, a model change and a
// masked evaluation, each more than once.
func TestCLVValidityRule(t *testing.T) {
	r := newMemoRig(t)
	e := r.eng
	np := len(e.Models)
	obs := &goldenObserver{}
	e.Exec.SetObserver(obs)
	st := e.Exec.Stats()
	rng := rand.New(rand.NewSource(51))
	masks := [][]bool{nil, {true, false}, {false, true}}
	per := make([]float64, np)
	var last *tree.Node        // the record of the last derivative region
	since := map[string]bool{} // the edits made since
	seen := map[string]int{}
	checks := 0
	for op := 0; op < 400; op++ {
		branches := e.Tree.Branches()
		b, m := branches[rng.Intn(len(branches))], e.Models[rng.Intn(np)]
		switch rng.Intn(8) {
		case 0:
			if err := m.SetAlpha(0.3 + 2*rng.Float64()); err != nil {
				t.Fatal(err)
			}
			since["a model change"] = true
		case 1:
			if err := m.SetExRate(rng.Intn(len(m.ExRates)-1), 0.2+3*rng.Float64()); err != nil {
				t.Fatal(err)
			}
			if err := m.UpdateEigen(); err != nil {
				t.Fatal(err)
			}
			since["a model change"] = true
		case 2:
			mask := masks[rng.Intn(len(masks))]
			if last != nil && rng.Intn(2) == 0 {
				b, mask = last, nil // its steps, if any, leave none for a derivative region there
			}
			e.Evaluate(b, mask, nil, nil, per)
			if mask != nil {
				since["a masked evaluation"] = true
			}
		case 3, 4:
			if last != nil && rng.Intn(4) > 0 {
				b = last
				if rng.Intn(3) == 0 {
					b = last.Back
				}
			}
			mask, lane := masks[rng.Intn(len(masks))], rng.Intn(2) == 0
			z, d1, d2 := make([]float64, np), make([]float64, np), make([]float64, np)
			for ip := range z {
				z[ip] = b.Z[e.slotOf(ip)]
			}
			var lnl []float64
			if lane {
				lnl = make([]float64, 1)
			}
			stepsSince := obs.patterns > 0
			*obs = goldenObserver{}
			st.Reset()
			e.BranchDerivatives(b, z, mask, nil, d1, d2, lnl)
			ops, steps := st.TotalOps, obs.patterns > 0
			want := scratchDerivatives(t, e, b, z, mask, lane)
			label := fmt.Sprintf("op %d: derivatives at record %d (mask %v, lane %v)", op, b.ID, mask, lane)
			sameBits(t, label+" d1", d1, want.d1)
			sameBits(t, label+" d2", d2, want.d2)
			sameBits(t, label+" lane", lnl, want.lnl)
			pass := 0.0 // the derivative pass alone
			for ip, part := range e.Data.Parts {
				if mask == nil || mask[ip] {
					pass += float64(part.PatternCount) * opsDerivative(part.Type.States(), e.numCats, 1, lane)
				}
			}
			if !(want.projected > pass) {
				t.Fatalf("%s: the fresh session's region cost %v, no more than its derivative pass (%v)", label, want.projected, pass)
			}
			switch {
			case steps:
				if !(ops > want.projected) {
					t.Errorf("%s: listed steps but cost %v, no more than a projection and a derivative pass (%v)", label, ops, want.projected)
				}
			case b == last && !stepsSince:
				seen["the last record again"]++
				if ops != pass {
					t.Errorf("%s: a repeat cost %v, want the derivative pass alone, %v", label, ops, pass)
				}
			default:
				switch {
				case b == last:
					seen["the last record after an earlier region's steps"]++
				case !stepsSince && b == last.Back:
					seen["the last record's Back"]++
				}
				if ops != want.projected {
					t.Errorf("%s: cost %v, want a projection and a derivative pass, %v", label, ops, want.projected)
				}
			}
			for k := range since {
				seen["after "+k]++
			}
			last, since = b, map[string]bool{}
			*obs = goldenObserver{}
		case 5:
			nni, err := e.Tree.Clone()
			if err != nil {
				t.Fatal(err)
			}
			moves := nni.NNIMoves()
			nni.ApplyNNI(moves[rng.Intn(len(moves))])
			if err := e.Tree.CopyTopologyFrom(nni); err != nil {
				t.Fatal(err)
			}
		case 6:
			moves := e.Tree.NNIMoves()
			v := e.Tree.ApplyNNI(moves[rng.Intn(len(moves))])
			tree.ClearXAt(v)
			tree.ClearXAt(v.Back)
			since["a splice"] = true
		default:
			mask := masks[rng.Intn(len(masks))]
			var lnl [1]float64
			e.Evaluate(e.Tree.Tips[0].Back, mask, nil, lnl[:], per)
			wantPer, want := scratchScore(t, e)
			for ip := range per {
				if mask == nil || mask[ip] {
					sameBits(t, "partition lnL after the sequence", per[ip:ip+1], wantPer[ip:ip+1])
				}
			}
			if mask == nil {
				sameBits(t, "lnL after the sequence", lnl[:], []float64{want})
			}
			checks++
		}
	}
	if checks < 20 {
		t.Fatalf("only %d checks ran", checks)
	}
	for _, c := range []string{"the last record again", "the last record's Back", "the last record after an earlier region's steps",
		"after a splice", "after a model change", "after a masked evaluation"} {
		if seen[c] < 2 {
			t.Errorf("derivative regions at %s: %d, want at least 2 (seen %v)", c, seen[c], seen)
		}
	}
}

// scratchResult is what a fresh session's derivative region at one record
// gives: its bits, and the ops of the region, which projects (after a
// TraverseRoot that leaves it no step to list).
type scratchResult struct {
	d1, d2, lnl []float64
	projected   float64
}

// scratchDerivatives runs BranchDerivatives at b's record on a fresh session
// over clones of e's tree and models, on as many virtual workers as e's.
func scratchDerivatives(t *testing.T, e *Engine, b *tree.Node, z []float64, mask []bool, lane bool) scratchResult {
	t.Helper()
	fresh, sim := scratchSession(t, e)
	defer sim.Close()
	np := len(e.Models)
	res := scratchResult{d1: make([]float64, np), d2: make([]float64, np)}
	if lane {
		res.lnl = make([]float64, 1)
	}
	fb := fresh.Tree.Records()[b.ID]
	fresh.TraverseRoot(fb)
	st := sim.Stats()
	st.Reset()
	fresh.BranchDerivatives(fb, z, mask, nil, res.d1, res.d2, res.lnl)
	res.projected = st.TotalOps
	return res
}

// scratchScore is LogLikelihood's per-partition and total bits on a session
// that remembers nothing: a fresh Shared and session over clones of e's tree
// and models, on as many virtual workers as e's (the same chunk layout, hence
// the same reduction order).
func scratchScore(t *testing.T, e *Engine) ([]float64, float64) {
	t.Helper()
	fresh, sim := scratchSession(t, e)
	defer sim.Close()
	per := make([]float64, len(e.Models))
	return per, fresh.LogLikelihood(per)
}

// scratchSession opens a session that remembers nothing over clones of e's
// tree and models on its own executor, which the caller closes.
func scratchSession(t *testing.T, e *Engine) (*Engine, *parallel.Pool) {
	t.Helper()
	tr, err := e.Tree.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*model.Model, len(e.Models))
	for i, m := range e.Models {
		ms[i] = m.Clone()
	}
	sim, err := parallel.NewSim(e.Exec.Threads())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newEngine(e.Data, tr, ms, sim, Options{Specialize: e.Specialize})
	if err != nil {
		sim.Close()
		t.Fatal(err)
	}
	return fresh, sim
}
