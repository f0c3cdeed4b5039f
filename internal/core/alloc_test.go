package core

import (
	"testing"
	"unsafe"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
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
	d, models := stealFixture(t, 4, 7)
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
		// The sumtable is built by the first PrepareSumtable, not up front.
		if eng.sumtable != nil {
			t.Errorf("%v: sumtable allocated before any PrepareSumtable", backend)
		}
		root := tr.Tips[0].Back
		eng.TraverseRoot(root, false, nil)
		eng.PrepareSumtable(root, nil)
		if len(eng.sumtable) == 0 || !isAligned(eng.sumtable) || len(eng.sumtable) != sh.layout.SumTotal() {
			t.Errorf("%v: sumtable len %d aligned=%v, want len %d aligned",
				backend, len(eng.sumtable), isAligned(eng.sumtable), sh.layout.SumTotal())
		}
		for w := range eng.pm {
			if !isAligned(eng.pm[w].spare) {
				t.Errorf("%v: spare P block of worker %d not aligned", backend, w)
			}
			for ip, mm := range eng.pm[w].memo {
				for i, blk := range mm.blk {
					if !isAligned(blk) {
						t.Errorf("%v: worker %d partition %d memo block %d not aligned", backend, w, ip, i)
					}
				}
			}
			for k := 0; k < 2; k++ {
				if !isAligned(eng.tipScratch[w][k]) {
					t.Errorf("%v: tipScratch[%d][%d] not aligned", backend, w, k)
				}
			}
			if !isAligned(eng.exScratch[w]) {
				t.Errorf("%v: exScratch[%d] not aligned", backend, w)
			}
		}
		// The cat-major layout must additionally keep every category plane
		// aligned: base + cat·catStride stays a multiple of 8 floats.
		if backend == BackendFused {
			for ip := range d.Parts {
				if d.Parts[ip].Type != alignment.DNA {
					continue
				}
				for cat := 0; cat < sh.NumCats; cat++ {
					if sh.layout.Index(ip, 0, cat)%alignFloatCount != 0 {
						t.Errorf("fused: partition %d cat %d plane offset %d not aligned",
							ip, cat, sh.layout.Index(ip, 0, cat))
					}
				}
			}
		}
	}
}

// TestSessionFootprintMatchesBuffers pins the figure plkd's dataset cache
// evicts on: MemoryFootprint().SessionBytes() must equal the summed lengths
// of what a real session over the Shared holds once it has run every region
// kind — CLVs, scaling vectors, sumtable, per-worker scratch, the chunk
// layout and runtime, and the per-chunk partial sums — on both backends. The
// transition-matrix memo is priced at its cap: the blocks the session holds
// plus one per slot that has not missed yet.
func TestSessionFootprintMatchesBuffers(t *testing.T) {
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		sim, err := parallel.NewSim(3)
		if err != nil {
			t.Fatal(err)
		}
		eng := batchEngine(t, backend, 4, sim, 3, Options{Specialize: true, Schedule: schedule.Weighted})
		runStealResult(t, eng)

		var held int64
		for i := range eng.clvs {
			held += 8*int64(len(eng.clvs[i])) + 4*int64(len(eng.scales[i]))
		}
		held += 8 * int64(len(eng.sumtable))
		var blocks, room int64
		for w := range eng.pm {
			for ip, mm := range eng.pm[w].memo {
				held += int64(unsafe.Sizeof(*mm))
				for _, blk := range mm.blk {
					if s := eng.Data.Parts[ip].Type.States(); blk == nil {
						room += 8 * int64(eng.numCats*s*s)
					}
					blocks += 8 * int64(len(blk))
				}
			}
			for k := 0; k < 2; k++ {
				held += 8 * int64(len(eng.tipScratch[w][k]))
			}
			held += 8 * int64(len(eng.pm[w].spare)+len(eng.exScratch[w]))
			if eng.smallScratch != nil {
				held += int64(len(eng.smallScratch[w]))
			}
		}
		l := eng.stealRT.Layout()
		held += l.MemoryBytes() + l.RuntimeBytes() + 8*int64(len(eng.evalChunk)+len(eng.derivChunk))

		if blocks == 0 || room == 0 {
			t.Errorf("%v: memo holds %d bytes of blocks with %d to its cap; want some of both", backend, blocks, room)
		}
		if got := eng.Shared().MemoryFootprint().SessionBytes(); got != held+blocks+room {
			t.Errorf("%v: SessionBytes() = %d, session holds %d + %d of memo blocks (%d short of the memo's cap)",
				backend, got, held, blocks, room)
		}
	}
}
