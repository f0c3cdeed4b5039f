package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

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
	e.BranchDerivatives(p, make([]float64, e.NumPartitions()), nil, nil, nil, nil, nil)
	e.Tree.ClearX()
	steps := tree.RootTraversal(nil, p)
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
	ws := e.weights(nil)
	e.gen++

	c, f := &e.workers[0].span, new(spanCtx)
	var cctx, fctx parallel.WorkerCtx
	for ip, part := range e.Data.Parts {
		share := part.PatternCount
		run := schedule.Run{Lo: part.Offset, Hi: part.Offset + share}
		kinds := []struct {
			name string
			r    region
			out  func(x *spanCtx, r *region) []float64 // what the kernel wrote
		}{
			{"tip-table newview", region{kind: parallel.RegionNewview, steps: steps}, func(x *spanCtx, _ *region) []float64 {
				lo := e.layout.Base(ip)
				return x.dst[lo : lo+share*e.numCats*x.s]
			}},
			{"derivative", region{kind: parallel.RegionDerivative, p: p, z: z, ws: ws, lanes: 2 * ws.r}, func(_ *spanCtx, r *region) []float64 { return r.out }},
			{"sumtable", region{kind: parallel.RegionSumTable, p: p}, func(x *spanCtx, _ *region) []float64 {
				return x.sum[x.sumBase : x.sumBase+share*e.numCats*x.s]
			}},
			{"evaluate", region{kind: parallel.RegionEvaluate, p: p, ws: ws, lanes: ws.r}, func(_ *spanCtx, r *region) []float64 { return r.out }},
		}
		for _, k := range kinds {
			label := fmt.Sprintf("%s %s", part.Name, k.name)
			rc, rf := k.r, k.r
			rc.out, rf.out = make([]float64, k.r.lanes), make([]float64, k.r.lanes)
			c.bind(&rc, rc.kind, si, ip, share, &cctx)
			*f = spanCtx{e: e, wk: e.workers[1]}
			f.bind(&rf, rf.kind, si, ip, share, &fctx)
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
			c.run(&rc, 0, run, &cctx)
			got := append([]float64(nil), k.out(c, &rc)...)
			f.run(&rf, 0, run, &fctx)
			sameBits(t, label+": in place vs zeroed", got, k.out(f, &rf))
			if oc, of := c.takeOps(share), f.takeOps(share); oc != of {
				t.Errorf("%s: takeOps charges %v in place, %v in a zeroed context", label, oc, of)
			}
		}
	}
}

// TestReleasedSetKeepsNoSession: Release clears every worker record's span
// binding, so a parked set keeps nothing of its last session alive. After a
// session has run every region kind, once under a WeightSet of its own, no
// pointer reachable from a parked record may lead to the engine, into a
// model's Freqs, EigenVecs or InvVecsT, into the WeightSet's lanes, or into
// a CLV or scaling vector, and no step the parked step list has room for may
// name a node of the session's tree.
func TestReleasedSetKeepsNoSession(t *testing.T) {
	sim, err := parallel.NewSim(3)
	if err != nil {
		t.Fatal(err)
	}
	eng := batchEngine(t, BackendFused, 4, sim, 3, Options{Specialize: true}, nil)
	ws, err := NewWeightSet(eng.Data, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	root := eng.Tree.Tips[0].Back
	eng.TraverseRoot(root)
	eng.Evaluate(root, nil, ws, nil, nil)
	d := make([]float64, eng.NumPartitions()*ws.r)
	z := make([]float64, eng.NumPartitions())
	for ip := range z {
		z[ip] = 0.1
	}
	eng.BranchDerivatives(root, z, nil, ws, d, slices.Clone(d), nil)

	// The session's memory, by the address range each object spans.
	type object struct {
		name   string
		lo, hi uintptr
	}
	var session []object
	add := func(name string, p unsafe.Pointer, bytes int) {
		if p != nil {
			session = append(session, object{name, uintptr(p), uintptr(p) + uintptr(max(bytes, 1))})
		}
	}
	add("the engine", unsafe.Pointer(eng), int(unsafe.Sizeof(*eng)))
	for ip, m := range eng.Models {
		for _, v := range []struct {
			name string
			f    []float64
		}{{"Freqs", m.Freqs}, {"EigenVecs", m.EigenVecs}, {"InvVecsT", m.InvVecsT}} {
			add(fmt.Sprintf("model %d's %s", ip, v.name), unsafe.Pointer(unsafe.SliceData(v.f)), 8*len(v.f))
		}
	}
	add("the WeightSet's lanes", unsafe.Pointer(unsafe.SliceData(ws.w)), 8*len(ws.w))
	for i := range eng.clvs {
		add(fmt.Sprintf("CLV %d", i), unsafe.Pointer(unsafe.SliceData(eng.clvs[i])), 8*len(eng.clvs[i]))
		add(fmt.Sprintf("scaling vector %d", i), unsafe.Pointer(unsafe.SliceData(eng.scales[i])), 4*len(eng.scales[i]))
	}
	for _, n := range eng.Tree.Records() {
		add(fmt.Sprintf("tree record %d", n.Index), unsafe.Pointer(n), int(unsafe.Sizeof(*n)))
	}

	b := eng.sessionBuffers
	bound := 0
	for _, w := range b.workers {
		if w.span.e == eng && w.span.lw != nil && w.span.freqs != nil {
			bound++
		}
	}
	if bound == 0 {
		t.Fatal("no worker's binding points into the session before Release: the test has nothing to check")
	}
	eng.Release()

	seen := map[uintptr]bool{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		var p uintptr
		switch v.Kind() {
		case reflect.Pointer, reflect.Slice:
			p = uintptr(v.UnsafePointer())
		}
		if p != 0 {
			for _, o := range session {
				if p >= o.lo && p < o.hi {
					t.Errorf("parked record: %s points into %s", path, o.name)
					return
				}
			}
		}
		switch v.Kind() {
		case reflect.Pointer:
			if p != 0 && !seen[p] {
				seen[p] = true
				walk(path, v.Elem())
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Struct:
			default:
				return // a leaf: the check above covers where it points
			}
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	}
	for w, rec := range b.workers {
		walk(fmt.Sprintf("worker %d", w), reflect.ValueOf(rec))
	}
	walk("step list", reflect.ValueOf(b.steps[:cap(b.steps)]))
}
