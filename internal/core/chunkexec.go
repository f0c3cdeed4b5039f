package core

import (
	"math"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// Region execution. A parallel region is one thing: the entry point describes
// it (region), Engine.drain is the one chunk loop every worker of every region
// runs, and spanCtx.bind is the one place a (partition, worker) encounter is
// set up. The schedule's assignment is sliced into chunks (steal.Layout) and
// each worker drains chunks from the session's steal.Runtime. What differs
// between region kinds is data on the region and three switches on its kind:
// what a span binds (bind), which kernel body a chunk runs (run), and what a
// pattern costs (takeOps); evaluate and derivative regions add a fixed-order
// reduction after the barrier, in their entry points. Two further things that
// used to be separate drivers are values, not code paths:
//
//   - "Static" execution is the runtime with thieving off (Options.Steal
//     false, or any serial executor): a worker walks its own chunk list in
//     ascending order, which is exactly its scheduled share, and nothing else.
//     With thieving on, a drained worker additionally steals the largest
//     remaining half from the costliest victim, so no worker idles at the
//     region barrier while another still has queued work.
//   - "Unbatched" evaluation is a WeightSet of width 1: Evaluate and
//     BranchDerivatives run the R-lane reductions over the dataset's own
//     weights (held once on the Shared) or the session's override, and lane r
//     of any batch performs the floating-point sequence a width-1 run over
//     replicate r's weights performs.
//
// Determinism argument (why a result depends only on the schedule and its
// chunk layout — not on stealing, the executor, or the interleaving):
//
//  1. CLV, scaling, and sumtable writes are per-pattern and chunks are
//     disjoint pattern ranges, so newview/sumtable output is independent of
//     which worker executes a chunk.
//  2. Reduction kernels (evaluate, derivatives) accumulate one partial sum
//     per (chunk, lane), in ascending pattern order inside the chunk — a pure
//     function of the chunk's range — and the master reduces the per-chunk
//     partials in fixed chunk-id order after the barrier. The floating-point
//     association is therefore identical whatever the dynamic steal
//     interleaving, stealing on or off, concurrent or serial executor, in
//     this session or any other over the same schedule and minimum chunk size.
//  3. Multi-step traversals need an intra-region step barrier only when
//     thieving (steal.Runtime.NextStep): a stolen pattern's step-s writer
//     need not be its step-s+1 reader, so every step's CLVs must be visible
//     before any worker starts the next. An owner-only worker reads at step
//     s+1 only patterns it wrote itself at step s, so without stealing the
//     traversal keeps the paper's single barrier per region.
//
// Span set-up (binding the two transition-matrix blocks, gathering tip
// tables) is per (step, span) encounter of a worker, so a worker processing
// consecutive chunks of one span pays it once; thieves crossing into a new
// span pay it again, which the op accounting records as the (real) extra work
// stealing performs. A span binds, it does not compute: a P(z) block the
// worker already built for the partition is taken from its memo (pmMemo).
// Nor does it copy: each worker binds its own spanCtx in place, field by
// field, so an encounter zeroes and copies no context.
// Whether a tip table amortizes is decided from the chunk owner's whole
// pattern share of the span (steal.Chunk.Share) — a pure function of the
// layout — and the code lists of the span's tip ends, not from the chunk at
// hand, so a share the pack cut into many short runs still takes the table
// path.

// region describes the parallel region in flight: its kind and what its
// spans bind. It lives on the Engine (Engine.cur) from runRegion's Load to
// its Finish, so issuing a region allocates nothing.
type region struct {
	kind  parallel.Region
	steps []tree.TraversalStep // newview: the traversal descriptor, one pass over the chunks per step
	p     *tree.Node           // evaluate, sumtable: the branch (p, p.Back) the region roots at
	z     []float64            // derivative: the branch length per partition
	ws    *WeightSet           // evaluate, derivative: the replicate weights reduced under
	out   []float64            // evaluate, derivative: per-chunk partial sums, lanes entries a chunk
	lanes int
}

// runRegion executes r over the active partitions: one fan-out, every worker
// in drain, one barrier.
func (e *Engine) runRegion(r region, act []bool) {
	e.cur = r
	e.stealRT.Load(act)
	e.Exec.Run(r.kind, e.drainFn)
	e.stealRT.Finish()
	e.cur = region{}
}

// drain is the chunk loop: worker w takes chunks from the runtime until the
// region (for a traversal: each step of it, with the runtime's NextStep in
// between — a rewind, and a barrier only when thieving) has none left for it.
// A span is bound once per encounter and re-used across consecutive chunks;
// the op charge flushes into ctx once, off the chunk loop.
func (e *Engine) drain(w int, ctx *parallel.WorkerCtx) {
	r, rt := &e.cur, e.stealRT
	passes := max(1, len(r.steps))
	c := e.spans[w]
	ops := 0.0
	for si := 0; si < passes; si++ {
		if si > 0 {
			rt.NextStep(w, ctx)
		}
		cached := -1
		for {
			id := rt.Next(w, ctx)
			if id < 0 {
				break
			}
			ch := rt.Layout().Chunk(id)
			if ch.Span != cached {
				c.bind(e, r, si, ch.Span, w, ctx)
				cached = ch.Span
			}
			c.ensureTables(ch.Share)
			ops += c.takeOps(c.run(r, id, ch.Run(), ctx))
		}
	}
	ctx.Ops += ops
}

// spanEnd is one of the two nodes a span reads: the children Q and R of a
// newview step, or the ends p and p.Back of the branch an evaluate or
// sumtable region roots at. An inner end is its CLV and scaling exponents; a
// tip end its per-pattern codes, plus the lookup table once ensureTables has
// built it.
type spanEnd struct {
	tip   bool
	v     []float64 // inner: CLV
	sc    []int32   // inner: scaling exponent per global pattern
	row   []byte    // tip: code per pattern of the partition
	codes []byte    // tip: codes present in row, ascending; nil when the end takes no table
	pm    []float64 // transition matrices (cats x s x s) the kind applies to this end, if any
	tab   []float64 // tip: lookup table, nil until built
}

// spanCtx is the per-(partition, worker) setup of whatever region is in
// flight, factored out of the pattern loops: drain binds it once per span
// encounter and runs one chunk at a time against it. The geometry and the two
// ends are common to every kind; the groups below them are bound by the kinds
// named, and a kind reads no group it does not bind. Each worker has one
// (sessionBuffers.spans), which every binding overwrites in place: nothing is
// zeroed or copied whole.
type spanCtx struct {
	e          *Engine
	kind       parallel.Region
	body       kernelBody // which newview/evaluate body the partition runs
	w          int
	s, cats    int
	cs         int
	base       int
	catStride  int // CLV layout: offset between consecutive categories
	partOffset int
	dtype      alignment.DataType
	a, b       spanEnd
	fixed      float64 // setup ops not yet claimed by takeOps

	// newview: the parent CLV written, and scaling events since the last flush.
	dst      []float64
	dstScale []int32
	scaled   float64

	// applyP is the generic bodies' P application, dst = P_c·x over one block
	// of end.pm, for the block layout of the span's alphabet (model.PMatrices):
	// applyRows over a 4-state block's rows, model.ApplyCols over a wider
	// block's columns. Chosen once per binding.
	applyP func(dst, pm, x []float64)

	// evaluate, sumtable: the model views of the reduction / projection.
	invCats  float64
	freqs    []float64
	ev, eviT []float64 // sumtable: V, and V^-1 transposed, as ApplyCols reads them

	// The worker's scratch (exScratch) as the generic bodies use it: tmp holds
	// one P application or projection (s floats; newview, evaluate, sumtable),
	// and fl the sumtable's s products freqs[a]·cl[a] of the pattern and
	// category at hand.
	tmp, fl []float64

	// sumtable, derivative: the session's sumtable (pattern-major) and the
	// partition's base in it.
	sum   []float64
	sbase int

	// derivative: exp(lambda_k r_c z) (model.Exps of g·z) and the factors
	// g = lambda_k r_c, g^2; the sums of a block of quartets (derivQuartets).
	eTab, g1Tab, g2Tab, sums []float64

	// evaluate, derivative: the partition's replicate lanes, lw[j*R+r] the
	// weight of its j-th pattern under replicate r.
	R  int
	lw []float64
}

// bindEnd points end at the views of node n over partition part, and clears
// what the previous binding left in it: no P block and no table yet. A nil n
// unbinds the end (a derivative span reads neither).
func (e *Engine) bindEnd(end *spanEnd, part *alignment.CompressedPartition, n *tree.Node) {
	end.tip, end.v, end.sc, end.row, end.codes, end.pm, end.tab = false, nil, nil, nil, nil, nil, nil
	switch {
	case n == nil:
	case n.IsTip():
		end.tip, end.row, end.codes = true, part.Tips[n.Index], part.Codes[n.Index]
	default:
		end.v, end.sc = e.clv(n.Index), e.scale(n.Index)
	}
}

// bind sets c up for partition ip under worker w: the geometry, then what the
// region's kind reads — the transition matrices of its branches (transition:
// each worker computes P locally, as RAxML's Pthreads do, rather than pay a
// synchronization to share it, and remembers what it computed), the views of
// both ends, the partition's lanes of the WeightSet. si is the traversal step
// of a newview region. Every binding assigns the geometry, both ends and the
// lanes, which code of any kind reads; a kind's own group only that kind.
func (c *spanCtx) bind(e *Engine, r *region, si, ip, w int, ctx *parallel.WorkerCtx) {
	part := e.Data.Parts[ip]
	s, cats := part.Type.States(), e.numCats
	m := e.Models[ip]
	c.e, c.kind, c.body, c.w = e, r.kind, e.bodies[ip], w
	c.s, c.cats, c.cs = s, cats, cats*s
	c.base, c.catStride = e.layout.Base(ip), e.layout.CatStride(ip)
	c.partOffset, c.dtype, c.fixed = part.Offset, part.Type, 0
	c.applyP = model.ApplyCols
	if s == 4 {
		c.applyP = applyRows
	}
	ex := e.exScratch[w]
	c.tmp = ex[:s]
	c.R, c.lw = 0, nil
	if r.ws != nil {
		c.R, c.lw = r.ws.r, r.ws.lanes(part.Offset)
	}
	switch r.kind {
	case parallel.RegionNewview:
		st, slot := r.steps[si], e.slotOf(ip)
		e.bindEnd(&c.a, part, st.Q)
		e.bindEnd(&c.b, part, st.R)
		taken := c.transition(&c.a, m, ip, st.Q.Z[slot], -1, ctx)
		c.transition(&c.b, m, ip, st.R.Z[slot], taken, ctx)
		c.dst, c.dstScale = e.clv(st.P.Index), e.scale(st.P.Index)
		switch {
		case c.a.tip && c.b.tip:
			ctx.SpanTipTip++
		case c.a.tip || c.b.tip:
			ctx.SpanTipInner++
		default:
			ctx.SpanInner++
		}
	case parallel.RegionEvaluate:
		e.bindEnd(&c.a, part, r.p)
		e.bindEnd(&c.b, part, r.p.Back)
		c.a.codes = nil // p's tip vector is read as it is; only q has a P application to tabulate
		c.transition(&c.b, m, ip, r.p.Z[e.slotOf(ip)], -1, ctx)
		c.invCats, c.freqs = 1.0/float64(cats), m.Freqs
	case parallel.RegionSumTable:
		e.bindEnd(&c.a, part, r.p)
		e.bindEnd(&c.b, part, r.p.Back)
		c.invCats, c.freqs, c.ev, c.eviT = 1.0/float64(cats), m.Freqs, m.EigenVecs, m.InvVecsT
		c.sum, c.sbase, c.fl = e.sumtable, e.layout.SumIndex(ip, 0), ex[s:2*s]
	default: // parallel.RegionDerivative
		e.bindEnd(&c.a, part, nil)
		e.bindEnd(&c.b, part, nil)
		c.sum, c.sbase = e.sumtable, e.layout.SumIndex(ip, 0)
		z := r.z[ip]
		c.eTab, c.g1Tab, c.g2Tab = ex[0:c.cs], ex[c.cs:2*c.cs], ex[2*c.cs:3*c.cs]
		c.sums = ex[3*c.cs : 3*c.cs+12*derivBlock]
		for cat := 0; cat < cats; cat++ {
			rc := m.CatRates[cat]
			for k := 0; k < s; k++ {
				g := m.EigenVals[k] * rc
				c.eTab[cat*s+k] = g * z
				c.g1Tab[cat*s+k] = g
				c.g2Tab[cat*s+k] = g * g
			}
		}
		model.Exps(c.eTab)
	}
}

// What a worker remembers. Lazy SPR and Newton smoothing hold every branch
// but one fixed, so most spans need P(z) for a (model state, z) their worker
// has built before (a Brent proposal changes every P: DESIGN.md has the hit
// rates of both). pmMemo is a direct-mapped table of pmMemoSlots blocks per
// (worker, partition), private to the worker: no synchronisation, no effect
// on who computes what. 32 is the largest power of two whose blocks stay
// within half a megabyte per worker and protein partition at four categories
// (32 x 4 x 20 x 20 x 8 B = 410 KB; a DNA partition's are 16 KB).
const (
	pmMemoBits  = 5
	pmMemoSlots = 1 << pmMemoBits
)

// pmStamp identifies the content of a memo block: P(z) for the z with these
// bits, of the model at this epoch (model.Epoch), written while the buffer
// set was at this generation (sessionBuffers.gen): the next session's models
// are other objects whose epochs may coincide, and the bump is what keeps
// everything of the previous holder's from hitting, in O(1).
type pmStamp struct{ z, epoch, gen uint64 }

type pmMemo struct {
	stamp [pmMemoSlots]pmStamp
	blk   [pmMemoSlots][]float64 // cats x s x s each, allocated by the slot's first miss
}

// pmWorker is one worker's P storage: a memo per partition (nil until its
// first span there) and the spare block for the one that cannot go into a slot.
type pmWorker struct {
	memo  []*pmMemo
	spare []float64
}

// transition points end.pm at P(z) for partition ip and returns the memo slot
// the block sits in. A miss computes the block into its slot and charges the
// cats·s³ set-up; a hit charges nothing. taken is the slot the span's other
// end was just handed (-1: none): two different z can share a slot, and a
// miss must not overwrite a block the span still reads, so that one end
// computes into the worker's spare block instead and remembers nothing.
func (c *spanCtx) transition(end *spanEnd, m *model.Model, ip int, z float64, taken int, ctx *parallel.WorkerCtx) int {
	pw := &c.e.pm[c.w]
	memos := pw.memo
	mm := memos[ip]
	if mm == nil {
		mm = new(pmMemo)
		memos[ip] = mm
	}
	want := pmStamp{math.Float64bits(z), m.Epoch(), c.e.gen}
	i := int(want.z * 0x9E3779B97F4A7C15 >> (64 - pmMemoBits)) // Fibonacci hashing: the top bits of z·2^64/phi
	if mm.stamp[i] == want {
		ctx.PReused++
		end.pm = mm.blk[i]
		return i
	}
	n := c.cats * c.s * c.s
	ctx.PComputed++
	c.fixed += float64(n * c.s)
	if i == taken {
		i, end.pm = -1, pw.spare[:n]
	} else {
		if mm.blk[i] == nil {
			mm.blk[i] = alignedFloats(n)
		}
		mm.stamp[i], end.pm = want, mm.blk[i]
	}
	m.PMatrices(z, end.pm)
	return i
}

// ensureTables is the one table decision: with Specialize on, when the chunk
// owner's whole share of the span — a pure function of the layout —
// amortizes lookup tables for the span's tip ends (tipTablesAmortize), build
// the ones not built yet. A span builds all its tables or none, and because
// the table and generic paths are bit-identical, mixing them across chunks of
// one span can never change results, only the op accounting.
func (c *spanCtx) ensureTables(share int) {
	a, b := &c.a, &c.b
	if !c.e.Specialize || (a.codes == nil && b.codes == nil) || !tipTablesAmortize(share, a.codes, b.codes) {
		return
	}
	for i, end := range [2]*spanEnd{a, b} {
		if end.codes == nil || end.tab != nil {
			continue
		}
		dst, terms := c.e.tipScratch[c.w][i], tipSetStates(c.dtype, end.codes)
		switch {
		case c.kind != parallel.RegionSumTable:
			// Newview and evaluate tabulate the P application to the tip vector.
			end.tab = buildTipTable(dst, c.dtype, end.codes, end.pm, c.s, c.cats)
			c.fixed += opsTipTable(c.s, c.cats, terms)
		case i == 0:
			// The sumtable's are category-independent eigenbasis projections.
			end.tab = buildTipSumLeft(dst, c.dtype, end.codes, c.freqs, c.ev, c.s)
			c.fixed += opsTipProj(c.s, terms)
		default:
			end.tab = buildTipSumRight(dst, c.dtype, end.codes, c.eviT, c.s)
			c.fixed += opsTipProj(c.s, terms)
		}
	}
}

// run executes chunk id (pattern run run) of region r with the body the
// partition's selector names and returns the processed pattern count.
// Dispatch is per chunk, never per pattern. The newview observability
// counters flush here, off the pattern loop.
func (c *spanCtx) run(r *region, id int, run schedule.Run, ctx *parallel.WorkerCtx) int {
	switch c.kind {
	case parallel.RegionNewview:
		var n int
		switch c.body {
		case bodyFused4:
			n = c.newviewFused4(run)
		default:
			n = c.newviewGeneric(run)
		}
		ctx.Patterns += float64(n)
		ctx.Scalings += c.scaled
		c.scaled = 0
		return n
	case parallel.RegionEvaluate:
		// The fused body's raw likelihoods are its four-pattern chains; a
		// q-side tip without a table takes the generic body's, the same bits.
		fused := c.body == bodyFused4 && (!c.b.tip || c.b.tab != nil)
		return c.evaluateRun(run, r.out[id*r.lanes:(id+1)*r.lanes], fused)
	case parallel.RegionSumTable:
		// Once per branch, amortized over every Newton iteration: one body
		// serves every backend.
		return c.sumtableGeneric(run)
	default:
		return c.derivativeGeneric(run, r.out[id*r.lanes:(id+1)*r.lanes])
	}
}

// takeOps prices count processed patterns by the kernel case that ran — a
// tip end with a table costs a row read, any other end the full O(s²) work —
// and claims the outstanding setup charge.
func (c *spanCtx) takeOps(count int) float64 {
	var per float64
	ta, tb := c.a.tab != nil, c.b.tab != nil
	switch c.kind {
	case parallel.RegionNewview:
		per = opsNewviewCase(c.s, c.cats, ta, tb)
	case parallel.RegionEvaluate:
		per = opsEvaluateCase(c.s, c.cats, tb, c.R)
	case parallel.RegionSumTable:
		per = opsSumtableCase(c.s, c.cats, ta, tb)
	default:
		per = opsDerivative(c.s, c.cats, c.R)
	}
	ops := float64(count)*per + c.fixed
	c.fixed = 0
	return ops
}

// chunkPartials returns *buf resized to n zeroed entries (grow-only): the
// per-chunk partial sums of one reduction region. Chunks of masked partitions
// are never handed out, so their entries stay zero.
func chunkPartials(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

// SetStealing toggles thieving (Options.Steal sets the initial value). The
// chunks and the fixed-order reductions stay in place either way, so results
// are bit-for-bit identical with stealing on or off. Must be called between
// regions.
func (e *Engine) SetStealing(on bool) { e.stealRT.SetStealing(on) }
