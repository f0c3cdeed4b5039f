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
// set up. The schedule's assignment is sliced into chunks (the dataset's
// steal.Layout) and each worker walks its own chunk ids in ascending order,
// skipping chunks of masked-off spans: exactly its scheduled share. A region
// is newview steps, at most one sumtable pass and at most one terminal pass,
// whose kind it is counted under. What differs between passes is data on
// the region and three switches on the pass kind: what a span binds (bind),
// which kernel body a chunk runs (run), and what a pattern costs (takeOps);
// evaluate and derivative regions add a fixed-order reduction after the
// barrier, in their entry points. There is one entry point per kind —
// TraverseRoot issues steps alone, Evaluate and BranchDerivatives a terminal
// after the steps their branch needs (BranchDerivatives the sumtable pass
// between when the branch's sumtable is stale) — and each is the one
// runRegion call of its kind.
// "Unbatched" evaluation is a value, not a code path: a WeightSet of width 1.
// Evaluate and BranchDerivatives take the WeightSet they reduce under as an
// argument, nil being the dataset's own weights (held once on the Shared),
// and lane r of any batch performs the floating-point sequence a width-1 run
// over replicate r's weights performs.
//
// Determinism argument (why a result depends only on the chunk layout — the
// dataset's schedule cut at its minimum chunk size — not on the executor or
// the interleaving):
//
//  1. CLV, scaling, and sumtable writes are per-pattern and chunks are
//     disjoint pattern ranges, so newview/sumtable output is independent of
//     when a worker runs a chunk.
//  2. Reduction kernels (evaluate, derivatives) accumulate one partial sum
//     per (chunk, lane), in ascending pattern order inside the chunk — a pure
//     function of the chunk's range — and the master reduces the per-chunk
//     partials in fixed chunk-id order after the barrier. The floating-point
//     association is therefore identical on a concurrent or a serial
//     executor, in this session or any other reading the same layout.
//  3. A region needs no barrier between its passes: a worker reads at step
//     s+1, or at the terminal, only patterns it wrote itself at the steps
//     before, so a region keeps the paper's single barrier (a worker may
//     run a whole pass ahead of its neighbours).
//
// Span set-up (binding the two transition-matrix blocks, gathering tip
// tables) is per (step, span) encounter of a worker, so a worker processing
// consecutive chunks of one span pays it once. A span binds, it does not
// compute: a P(z) block the worker already built for the partition is taken
// from its memo (pmMemo). Nor does it re-derive: each worker binds the
// spanCtx in its own record (worker) in place, takes the partition's record
// (layout.go) in one assignment and computes only what the region, the
// session's models and the branch decide.
// Whether a tip table amortizes is decided from the worker's whole pattern
// share of the span (steal.Chunk.Share) — a pure function of the layout — and
// the code lists of the span's tip ends, not from the chunk at hand, so a
// share the pack cut into many short runs still takes the table path.

// region describes the parallel region in flight: its passes, the partitions
// they cover and what their spans bind. It lives on the Engine (Engine.cur)
// for the length of runRegion, so issuing a region allocates nothing.
type region struct {
	kind    parallel.Region      // the terminal pass; RegionNewview: none, the steps alone
	act     []bool               // the active partitions: chunks of the others are skipped
	stepAct []bool               // the steps' active partitions: a superset of the terminal's
	steps   []tree.TraversalStep // the traversal descriptor, one newview pass over the chunks per step
	sum     bool                 // derivative: a sumtable pass over stepAct's partitions before the terminal
	p       *tree.Node           // evaluate, derivative: the branch (p, p.Back) the region roots at
	z       []float64            // derivative: the branch length per partition
	ws      *WeightSet           // evaluate, derivative: the replicate weights reduced under
	out     []float64            // evaluate, derivative: per-chunk partial sums, lanes entries a chunk
	lanes   int
}

// runRegion executes r over the active partitions: one fan-out, every worker
// in drain, one barrier. A session runs one region at a time; a second one
// issued while the first is in flight (two goroutines driving one session)
// panics rather than overwrite the region its workers read.
func (e *Engine) runRegion(r region, act []bool) {
	if e.inRegion.Swap(true) {
		panic("core: region issued while another is in flight on this session")
	}
	r.act = e.activeOrAll(act)
	e.cur = r
	e.Exec.Run(r.kind, e.drainFn)
	e.cur = region{}
	e.inRegion.Store(false)
}

// drain is the chunk loop: worker w walks its own chunk ids in ascending
// order, once per traversal step, once for the sumtable and once for the
// terminal, and runs every chunk whose span is active in the pass. A span is
// bound once per encounter and re-used across consecutive chunks; the op
// charge flushes into ctx once, off the chunk loop.
func (e *Engine) drain(w int, ctx *parallel.WorkerCtx) {
	r := &e.cur
	own := e.chunks.Owned(w)
	c := &e.workers[w].span
	ops := 0.0
	passes := len(r.steps)
	if r.sum {
		passes++
	}
	if r.kind != parallel.RegionNewview {
		passes++ // the terminal
	}
	for si := 0; si < passes; si++ {
		kind, act := parallel.RegionNewview, r.stepAct
		switch {
		case si == passes-1 && r.kind != parallel.RegionNewview:
			kind, act = r.kind, r.act
		case si == len(r.steps): // r.sum: the pass between the steps and the terminal
			kind = parallel.RegionSumTable
		}
		cached := -1
		for _, id := range own {
			ch := e.chunks.Chunk(int(id))
			if !act[ch.Span] {
				continue
			}
			if ch.Span != cached {
				c.bind(r, kind, si, ch.Span, ctx)
				cached = ch.Span
			}
			c.ensureTables(ch.Share)
			ops += c.takeOps(c.run(r, int(id), ch.Run(), ctx))
		}
	}
	ctx.Ops += ops
}

// spanEnd is one of the two nodes a span reads: the children Q and R of a
// newview step, or the ends p and p.Back of the branch an evaluate, sumtable
// or derivative pass roots at. An inner end is its CLV and scaling
// exponents; a tip end its per-pattern codes, plus the lookup table once
// ensureTables has built it.
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
// encounter and runs one chunk at a time against it. It lives in its worker's
// record, which every binding overwrites in place: nothing is zeroed or copied
// whole. The engine and the record are set when a session takes the buffer
// set; the partition's record is taken whole by each binding; the two ends
// are common to every kind; the groups below them are bound by the kinds
// named, and a kind reads no group it does not bind.
type spanCtx struct {
	e  *Engine
	wk *worker // the record this context lives in: the worker's buffers
	partition
	kind  parallel.Region
	a, b  spanEnd
	fixed float64 // setup ops not yet claimed by takeOps

	// newview: the parent CLV written, and scaling events since the last flush.
	dst      []float64
	dstScale []int32
	scaled   float64

	// evaluate, sumtable: the model views of the reduction / projection.
	freqs    []float64
	ev, eviT []float64 // sumtable: V, and V^-1 transposed, as ApplyCols reads them

	// The worker's scratch (worker.ex) as the generic bodies use it: tmp holds
	// one P application or projection (s floats; newview, evaluate, sumtable),
	// and fl the sumtable's s products freqs[a]·cl[a] of the pattern and
	// category at hand.
	tmp, fl []float64

	// sumtable, derivative: the session's sumtable (pattern-major).
	sum []float64

	// derivative: exp(lambda_k r_c z) (model.Exps of g·z) and the factors
	// g = lambda_k r_c, g^2; the sums of a block of quartets (derivQuartets);
	// whether the lnL lane is on, and the likelihoods of its block so far.
	eTab, g1Tab, g2Tab, sums []float64
	score                    bool
	ls                       [siteBlock]float64
	nl                       int

	// evaluate, derivative: the partition's replicate lanes, lw[j*R+r] the
	// weight of its j-th pattern under replicate r.
	R  int
	lw []float64
}

// bindEnd points end at the views of node n over partition part, and clears
// what the previous binding left in it: no P block and no table yet.
func (e *Engine) bindEnd(end *spanEnd, part *alignment.CompressedPartition, n *tree.Node) {
	end.tip, end.v, end.sc, end.row, end.codes, end.pm, end.tab = false, nil, nil, nil, nil, nil, nil
	switch {
	case n.IsTip():
		end.tip, end.row, end.codes = true, part.Tips[n.Index], part.Codes[n.Index]
	default:
		end.v, end.sc = e.clv(n.Index), e.scale(n.Index)
	}
}

// bind sets c up for partition ip in a pass of the given kind: the
// partition's record, then what the kind reads — the transition matrices of
// its branches (transition: each worker computes P locally, as RAxML's
// Pthreads do, rather than pay a synchronization to share it, and remembers
// what it computed), the views of both ends, the partition's lanes of the
// WeightSet. si is the step of a newview pass. Every binding assigns the
// record, both ends and the lanes; a kind's own group only that kind.
func (c *spanCtx) bind(r *region, kind parallel.Region, si, ip int, ctx *parallel.WorkerCtx) {
	e := c.e
	c.partition = e.layout.parts[ip]
	c.kind, c.fixed = kind, 0
	part, m, ex := e.Data.Parts[ip], e.Models[ip], c.wk.ex
	s, cs := c.s, c.cs
	c.tmp = ex[:s]
	c.R, c.lw = 0, nil
	if r.ws != nil {
		c.R, c.lw = r.ws.r, r.ws.lanes(c.partOffset)
	}
	switch kind {
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
		c.freqs = m.Freqs
	case parallel.RegionSumTable:
		e.bindEnd(&c.a, part, r.p)
		e.bindEnd(&c.b, part, r.p.Back)
		c.freqs, c.ev, c.eviT = m.Freqs, m.EigenVecs, m.InvVecsT
		c.sum, c.fl = e.sumtable, ex[s:2*s]
	default: // parallel.RegionDerivative
		// The lnL lane reads the scaling exponents of the sumtable's ends
		// and nothing else of them: no table, no P block.
		e.bindEnd(&c.a, part, r.p)
		e.bindEnd(&c.b, part, r.p.Back)
		c.a.codes, c.b.codes, c.score = nil, nil, r.lanes == 3*c.R
		c.sum = e.sumtable
		z := r.z[ip]
		c.eTab, c.g1Tab, c.g2Tab = ex[0:cs], ex[cs:2*cs], ex[2*cs:3*cs]
		c.sums = ex[3*cs : 3*cs+12*derivBlock]
		for cat := 0; cat < c.cats; cat++ {
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

// transition points end.pm at P(z) for partition ip and returns the memo slot
// the block sits in. A miss computes the block into its slot and charges the
// cats·s³ set-up; a hit charges nothing. taken is the slot the span's other
// end was just handed (-1: none): two different z can share a slot, and a
// miss must not overwrite a block the span still reads, so that one end
// computes into the worker's spare block instead and remembers nothing.
func (c *spanCtx) transition(end *spanEnd, m *model.Model, ip int, z float64, taken int, ctx *parallel.WorkerCtx) int {
	mm := &c.wk.memo[ip]
	want := pmStamp{math.Float64bits(z), m.Epoch(), c.e.gen}
	i := int(want.z * 0x9E3779B97F4A7C15 >> (64 - pmMemoBits)) // Fibonacci hashing: the top bits of z·2^64/phi
	if mm.stamp[i] == want {
		ctx.PReused++
		end.pm = mm.blk[i]
		return i
	}
	n := c.cs * c.s
	ctx.PComputed++
	c.fixed += float64(n * c.s)
	if i == taken {
		i, end.pm = -1, c.wk.spare[:n]
	} else {
		if mm.blk[i] == nil {
			mm.blk[i] = alignedFloats(n)
		}
		mm.stamp[i], end.pm = want, mm.blk[i]
	}
	m.PMatrices(z, end.pm)
	return i
}

// ensureTables is the one table decision: with Specialize on, when the
// worker's whole share of the span — a pure function of the layout —
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
		dst, terms := c.wk.tip[i], tipSetStates(c.dtype, end.codes)
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
		// Once per branch and CLV state, amortized over every Newton
		// iteration: one body serves every backend.
		return c.sumtableGeneric(run)
	default:
		return c.derivativeRun(run, r.out[id*r.lanes:(id+1)*r.lanes])
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
		per = opsDerivative(c.s, c.cats, c.R, c.score)
	}
	ops := float64(count)*per + c.fixed
	c.fixed = 0
	return ops
}

// grow returns *buf resized to n zeroed entries (grow-only): the per-chunk
// partial sums of one reduction region, whose chunks of masked partitions are
// never handed out, so their entries stay zero; or an evaluate's lane sums.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}
