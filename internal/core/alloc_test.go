package core

import (
	"reflect"
	"testing"
	"unsafe"

	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// TestAlignFloats pins the rounding helper: alignFloats rounds a float64
// count up to the next multiple of the 8 floats that fill one 64-byte cache
// line, and never down.
func TestAlignFloats(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 8}, {7, 8}, {8, 8}, {9, 16}, {15, 16}, {16, 16}, {100, 104},
	} {
		if got := alignFloats(tc.n); got != tc.want {
			t.Errorf("alignFloats(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestAlignedFloats pins the allocator contract the kernels rely on: the
// returned slice starts on a 64-byte boundary, has exactly the requested
// length, is zeroed, and its capacity is clipped to its length so an
// append can never silently scribble into the alignment slack.
func TestAlignedFloats(t *testing.T) {
	if v := alignedFloats(0); v != nil {
		t.Errorf("alignedFloats(0) = %v, want nil", v)
	}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 1000, 4096, 12345} {
		v := alignedFloats(n)
		if len(v) != n {
			t.Fatalf("alignedFloats(%d): len %d", n, len(v))
		}
		if cap(v) != n {
			t.Errorf("alignedFloats(%d): cap %d, want %d (clipped)", n, cap(v), n)
		}
		if !isAligned(v) {
			t.Errorf("alignedFloats(%d): base address not 64-byte aligned", n)
		}
		for i, x := range v {
			if x != 0 {
				t.Fatalf("alignedFloats(%d): entry %d = %v, want 0", n, i, x)
			}
		}
	}
}

// TestEngineBuffersAligned is the size/alignment pinning test for the hot
// buffers: every CLV, the sumtable workspace, and all per-worker scratch
// (P matrices, exponential tables, tip tables) must sit on cache-line
// boundaries under both backends, and the CLV/sumtable lengths must match
// the layout's padded totals.
func TestEngineBuffersAligned(t *testing.T) {
	d, models := mixedFixture(t, 4, 7)
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		sh, err := NewSharedWith(d, 4, 2, backend)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]*model.Model, len(models))
		for i, m := range models {
			ms[i] = m.Clone()
		}
		sim, err := parallel.NewSim(2)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewSession(sh, tr, ms, sim, Options{Specialize: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, clv := range eng.clvs {
			if !isAligned(clv) {
				t.Errorf("%v: clv %d not 64-byte aligned", backend, i)
			}
			if len(clv) != sh.layout.Total() {
				t.Errorf("%v: clv %d len %d, want layout total %d", backend, i, len(clv), sh.layout.Total())
			}
		}
		// The sumtable is built by the first BranchDerivatives, not up front.
		if eng.sumtable != nil {
			t.Errorf("%v: sumtable allocated before any BranchDerivatives", backend)
		}
		root := tr.Tips[0].Back
		eng.BranchDerivatives(root, make([]float64, len(ms)), nil, nil, nil, nil, nil)
		if len(eng.sumtable) == 0 || !isAligned(eng.sumtable) || len(eng.sumtable) != sh.layout.SumTotal() {
			t.Errorf("%v: sumtable len %d aligned=%v, want len %d aligned",
				backend, len(eng.sumtable), isAligned(eng.sumtable), sh.layout.SumTotal())
		}
		for w, wk := range eng.workers {
			if !isAligned(wk.spare) {
				t.Errorf("%v: spare P block of worker %d not aligned", backend, w)
			}
			for ip, mm := range wk.memo {
				for i, blk := range mm.blk {
					if !isAligned(blk) {
						t.Errorf("%v: worker %d partition %d memo block %d not aligned", backend, w, ip, i)
					}
				}
			}
			for k := 0; k < 2; k++ {
				if !isAligned(wk.tip[k]) {
					t.Errorf("%v: worker %d tip table %d not aligned", backend, w, k)
				}
			}
			if !isAligned(wk.ex) {
				t.Errorf("%v: worker %d scratch not aligned", backend, w)
			}
		}
		// Every category plane is aligned too: base + cat·catStride stays a
		// multiple of 8 floats.
		for ip := range d.Parts {
			for cat := 0; cat < sh.NumCats; cat++ {
				if sh.layout.Index(ip, 0, cat)%alignFloatCount != 0 {
					t.Errorf("%v: partition %d cat %d plane offset %d not aligned",
						backend, ip, cat, sh.layout.Index(ip, 0, cat))
				}
			}
		}
	}
}

// TestSessionFootprintMatchesBuffers pins the figure plkd's dataset cache
// evicts on: MemoryFootprint(l).SessionBytes() must equal the summed lengths
// of what a real session draining l holds once it has run every region
// kind — CLVs, scaling vectors, sumtable, every slice of every worker record,
// the share layout, and the one per-share partial buffer — on both
// backends. The worker records are walked by reflection, so a buffer added to
// one later cannot go unpriced. The transition-matrix memo is priced at its
// cap: the blocks the session holds plus one per slot that has not missed
// yet. The shared Layout term must be the layout descriptor's record table.
func TestSessionFootprintMatchesBuffers(t *testing.T) {
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		sim, err := parallel.NewSim(3)
		if err != nil {
			t.Fatal(err)
		}
		eng := batchEngine(t, backend, 4, sim, 3, Options{Specialize: true}, weighted(t))
		runEvalResult(t, eng)
		// The one partial buffer at its widest width-1 use: d1, d2 and the lnL lane.
		z := make([]float64, eng.NumPartitions())
		for i := range z {
			z[i] = 0.2
		}
		eng.BranchDerivatives(eng.Tree.Tips[0].Back, z, nil, nil, nil, nil, make([]float64, 1))

		var held int64
		for i := range eng.clvs {
			held += 8*int64(len(eng.clvs[i])) + 4*int64(len(eng.scales[i]))
		}
		held += 8 * int64(len(eng.sumtable))
		var blocks, room int64
		for _, wk := range eng.workers {
			held += recordBytes(reflect.ValueOf(wk).Elem())
			for ip, mm := range wk.memo {
				for _, blk := range mm.blk {
					if s := eng.Data.Parts[ip].Type.States(); blk == nil {
						room += 8 * int64(eng.numCats*s*s)
					}
					blocks += 8 * int64(len(blk))
				}
			}
		}
		l := eng.ShareLayout()
		held += l.MemoryBytes() + 8*int64(len(eng.partials))

		if blocks == 0 || room == 0 {
			t.Errorf("%v: memo holds %d bytes of blocks with %d to its cap; want some of both", backend, blocks, room)
		}
		f := eng.Shared().MemoryFootprint(l)
		if got := f.SessionBytes(); got != held+room {
			t.Errorf("%v: SessionBytes() = %d, session holds %d, %d of them memo blocks (%d short of the memo's cap)",
				backend, got, held, blocks, room)
		}
		// Layout prices every per-partition table the descriptor has, found
		// by reflection so a table added later cannot go unpriced.
		tables := recordBytes(reflect.ValueOf(eng.layout).Elem())
		if want := int64(unsafe.Sizeof(partition{})) * int64(len(eng.Data.Parts)); f.Layout != tables || tables != want {
			t.Errorf("%v: Layout = %d, the layout's tables hold %d (want one record table of %d partitions, %d bytes)",
				backend, f.Layout, tables, len(eng.Data.Parts), want)
		}
	}
}

// recordBytes sums the backing arrays of every slice reachable from v by
// value — through struct fields, array entries and slice elements, but no
// pointer — skipping a worker's span binding, whose views alias buffers
// priced elsewhere (CLVs, the sumtable, the worker's own scratch).
func recordBytes(v reflect.Value) int64 {
	var n int64
	switch v.Kind() {
	case reflect.Slice:
		n = int64(v.Len()) * int64(v.Type().Elem().Size())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += recordBytes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Type != reflect.TypeOf(spanCtx{}) {
				n += recordBytes(v.Field(i))
			}
		}
	}
	return n
}

// TestRegionEntriesAllocFree: once warm, no region entry allocates — a
// traversal lists its steps into the session's step buffer, Evaluate and
// BranchDerivatives list the steps that validate their branch there too
// (after a ClearXAt they carry one), BranchDerivatives projects the sumtable
// in the session's set (at the other end of the branch each call), and
// Evaluate and BranchDerivatives reduce into the session's partial sums and
// the caller's result buffers, at one lane and at three, and the derivative
// region's lnL lane (the score row) reduces into the session's lane sums.
// Checked on the caller-only executor, on three virtual workers and on a
// session view of two goroutine workers: a region hands each goroutine its
// view, no closure. AllocsPerRun counts every goroutine's allocations, so the
// last arm holds the executor's fan-out at 0 too.
func TestRegionEntriesAllocFree(t *testing.T) {
	sim, err := parallel.NewSim(3)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := parallel.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, arm := range []struct {
		name    string
		exec    *parallel.Pool
		threads int
	}{{"sequential", parallel.NewSequential(), 1}, {"virtual", sim, 3}, {"goroutines", pool.Session(), 2}} {
		eng := batchEngine(t, BackendFused, 4, arm.exec, arm.threads, Options{Specialize: true}, nil)
		ws, err := NewWeightSet(eng.Data, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		root := eng.Tree.Tips[0].Back
		n := eng.NumPartitions()
		z := make([]float64, n)
		for ip := range z {
			z[ip] = 0.1
		}
		lnl1, lnl3 := make([]float64, 1), make([]float64, 3)
		per3, d1, d2 := make([]float64, 3*n), make([]float64, n), make([]float64, n)
		oneHot := make([]bool, n)
		oneHot[n-1] = true
		end := root
		for _, entry := range []struct {
			name string
			call func()
		}{
			{"TraverseRoot", func() { eng.Tree.ClearX(); eng.TraverseRoot(root) }},
			{"Evaluate R=1", func() { eng.Evaluate(root, nil, nil, lnl1, nil) }},
			{"Evaluate R=3", func() { eng.Evaluate(root, nil, ws, lnl3, per3) }},
			{"LogLikelihood", func() { eng.LogLikelihood(nil) }},
			{"BranchDerivatives projecting", func() { end = end.Back; eng.BranchDerivatives(end, z, nil, nil, d1, d2, nil) }},
			{"Evaluate with steps", func() { tree.ClearXAt(root); eng.Evaluate(root, nil, nil, lnl1, nil) }},
			{"BranchDerivatives with steps", func() { tree.ClearXAt(root); eng.BranchDerivatives(root, z, oneHot, nil, d1, d2, nil) }},
			{"BranchDerivatives", func() { eng.BranchDerivatives(root, z, nil, nil, d1, d2, nil) }},
			{"score", func() { eng.BranchDerivatives(root, z, nil, ws, nil, nil, lnl3) }},
		} {
			entry.call() // warm: buffers grow, memo blocks and the sumtable are made
			if got := testing.AllocsPerRun(20, entry.call); got != 0 {
				t.Errorf("%s: %s allocates %v times a call", arm.name, entry.name, got)
			}
		}
	}
}
