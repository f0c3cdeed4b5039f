package core

import (
	"fmt"
	"testing"

	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// TestSpanRebindsInPlace: a worker's spanCtx is bound in place, one binding
// over the last, so nothing of a previous binding may be read by the next.
// Worker 0's own context goes through a newview step with a tip table, then a
// derivative, a sumtable and an evaluate span; beside it worker 1 binds the
// same spans into a context zeroed before every binding. ensureTables must
// build nothing in the derivative span, and at every binding takeOps must
// charge what the zeroed context charges and the kernel must write the same
// bits. A new memo generation starts both workers' P memos empty, so the two
// see the same hits and misses.
func TestSpanRebindsInPlace(t *testing.T) {
	r := newMemoRig(t)
	e := r.eng
	p := e.Tree.Tips[3].Back // an inner end p and a tip end p.Back: both reductions tabulate the tip
	e.TraverseRoot(p, false, nil)
	e.PrepareSumtable(p, nil)
	steps := tree.RootTraversal(p, false)
	si := -1
	for i, st := range steps {
		if st.Q.IsTip() || st.R.IsTip() {
			si = i
			break
		}
	}
	if si < 0 {
		t.Fatal("no newview step has a tip child")
	}
	z := make([]float64, e.NumPartitions())
	for ip := range z {
		z[ip] = p.Z[e.slotOf(ip)]
	}
	ws := e.ownWeights()
	e.gen++

	c, f := e.spans[0], new(spanCtx)
	var cctx, fctx parallel.WorkerCtx
	for ip, part := range e.Data.Parts {
		share := part.PatternCount
		run := schedule.Run{Lo: part.Offset, Hi: part.Offset + share, Step: 1}
		kinds := []struct {
			name string
			r    region
			out  func(x *spanCtx, r *region) []float64 // what the kernel wrote
		}{
			{"tip-table newview", region{kind: parallel.RegionNewview, steps: steps}, func(x *spanCtx, _ *region) []float64 {
				lo := e.layout.Base(ip)
				return x.dst[lo : lo+share*e.numCats*x.s]
			}},
			{"derivative", region{kind: parallel.RegionDerivative, z: z, ws: ws, lanes: 2 * ws.r}, func(_ *spanCtx, r *region) []float64 { return r.out }},
			{"sumtable", region{kind: parallel.RegionSumTable, p: p}, func(x *spanCtx, _ *region) []float64 {
				return x.sum[x.sbase : x.sbase+share*e.numCats*x.s]
			}},
			{"evaluate", region{kind: parallel.RegionEvaluate, p: p, ws: ws, lanes: ws.r}, func(_ *spanCtx, r *region) []float64 { return r.out }},
		}
		for _, k := range kinds {
			label := fmt.Sprintf("%s %s", part.Name, k.name)
			rc, rf := k.r, k.r
			rc.out, rf.out = make([]float64, k.r.lanes), make([]float64, k.r.lanes)
			c.bind(e, &rc, si, ip, 0, &cctx)
			*f = spanCtx{}
			f.bind(e, &rf, si, ip, 1, &fctx)
			c.ensureTables(share)
			f.ensureTables(share)
			built := c.a.tab != nil || c.b.tab != nil
			switch k.r.kind {
			case parallel.RegionNewview:
				if !built {
					t.Fatalf("%s: the span built no tip table; the test needs one to rebind over", label)
				}
			case parallel.RegionDerivative:
				if built || c.a.codes != nil || c.b.codes != nil || c.fixed != 0 {
					t.Errorf("%s: ensureTables built tables (%v) or charged set-up (%v) in a derivative span", label, built, c.fixed)
				}
			}
			if fb := f.a.tab != nil || f.b.tab != nil; built != fb {
				t.Errorf("%s: tables built %v in place, %v in a zeroed context", label, built, fb)
			}
			nc := c.run(&rc, 0, run, &cctx)
			got := append([]float64(nil), k.out(c, &rc)...)
			nf := f.run(&rf, 0, run, &fctx)
			sameBits(t, label+": in place vs zeroed", got, k.out(f, &rf))
			if oc, of := c.takeOps(nc), f.takeOps(nf); oc != of {
				t.Errorf("%s: takeOps charges %v in place, %v in a zeroed context", label, oc, of)
			}
		}
	}
}
