package core

// Region execution. Every parallel region of every session distributes its
// patterns the same way: the schedule's assignment is sliced into
// chunks (steal.Layout), each worker drains chunks from the session's
// steal.Runtime, and each region kind has exactly one driver built on that
// loop — ExecuteSteps (newview), evaluateLanes, PrepareSumtable, and
// derivativeLanes. The two things that used to be separate drivers are values
// here, not code paths:
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
// Session-shared tip tables and P-matrix setup are cached per (step, span)
// encounter in the worker-local span contexts, so a worker processing
// consecutive chunks of one span pays the setup once; thieves crossing into a
// new span pay it again, which the op accounting records as the (real) extra
// work stealing performs. Whether a tip table amortizes is decided from the
// chunk owner's whole pattern share of the span (steal.Chunk.Share) — a pure
// function of the layout — and the code lists of the span's tip children, not
// from the chunk at hand, so a share the pack cut into many short runs still
// takes the table path.

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

// Stealing reports whether thieving is currently enabled.
func (e *Engine) Stealing() bool { return e.stealRT.Stealing() }
