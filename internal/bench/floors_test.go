package bench

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

// The floors are the seven intra-run bounds this repository holds on any
// host: each is a ratio (or fraction) of two arms measured in this process,
// so it needs no report, no stored baseline and no second process to judge
// it. Absolute ns/op are not judged here; benchmark/ decides those against
// the parent commit on the same box.
const (
	// fusedNewviewFloor: the fused backend's cat-major layout and unrolled
	// 4-state kernels must at least halve the generic oracle's full newview
	// traversal at one thread. The scalar plane loops read 2.15x to 2.49x.
	// Where core.VectorLanes is 4 at four states the AVX plane kernels run
	// instead: five runs on the shared 2-vCPU reference box read 3.10x to 3.59x (five
	// earlier ones 2.61x to 3.33x), and the floor is 0.8 x the lowest of the
	// five, rounded down.
	fusedNewviewFloor       = 2.0
	fusedNewviewFloorVector = 2.4
	// tipTableFloor: the tip lookup-table path against the generic kernels
	// on a tip-heavy traversal at one thread. Ratcheted from 1.25 when the
	// tables became gathers: five runs on the shared 2-vCPU reference box
	// read 2.76x to 3.65x, and the floor is 0.8 x the lowest of them. With
	// the AVX plane kernels five runs read 5.96x to 6.07x (five earlier ones
	// 5.54x to 6.12x; the scalar plane loops 3.57x to 4.02x), so a host that
	// reports four lanes and runs the scalar loops fails here.
	tipTableFloor       = 2.2
	tipTableFloorVector = 4.7
	// batchedBootstrapFloor: one R-wide batched session must be at least
	// twice as fast per replicate as R dedicated single-replicate sessions
	// (far above that in practice: the batch pays one traversal for all R).
	batchedBootstrapFloor = 2.0
	// stealMigrationCeiling is the migrated-pattern fraction above which
	// stealing is a symptom rather than a cure (see the ceiling test).
	stealMigrationCeiling = 0.5
	// proteinMaddCeiling: wall time per priced op of the generic newview at
	// s = 20 over the same at s = 4. With four outputs a chain in the scalar
	// loop (then applyRows, now model.ApplyCols' fallback), five runs on the
	// shared 2-vCPU reference box read 0.37x to 0.39x, and the ceiling is
	// 1.25 x the highest; one accumulator per output reads 0.70x, so a
	// tidy-up back to the single += chain fails here rather than only in the
	// next benchmark. Where model.VectorApplyCols the AVX column mat-vec runs
	// the 20-state s² loop: ten runs read 0.08x to 0.17x, and the ceiling is
	// 1.25 x the highest, so a host that runs the scalar loop there fails.
	proteinMaddCeiling       = 0.49
	proteinMaddCeilingVector = 0.21
	// pmatricesFloor: the scalar 4-state PMatrices (one pmatrix4 and four
	// math.Exp calls a category) over the AVX2 kernel that computes the same
	// bits, at four categories. The kernel's prototype read 3.4x, and five
	// runs on the shared 2-vCPU reference box 3.04x to 3.30x; the floor sits
	// at 0.82 x the lowest. Checked only where the kernel runs.
	pmatricesFloor = 2.5
	// proteinApplyFloor: the scalar loop of model.ApplyCols over its AVX
	// kernel, the same bits, on the 20-state P application of one pattern at
	// four categories. Five runs on the shared 2-vCPU reference box read 4.01x
	// to 4.49x, and the floor is 0.8 x the lowest. Checked only where the
	// kernel runs.
	proteinApplyFloor = 3.2

	floorSeed = 42
)

// planesFloor is the floor of the realisation of the fused newview planes
// this host runs (core.VectorLanes at 4 states: 4 for the AVX kernels, 1 for
// the scalar loops).
func planesFloor(scalar, vector float64) float64 {
	if core.VectorLanes(core.BackendFused, 4) == 4 {
		return vector
	}
	return scalar
}

// timed skips a floor where its clock means nothing and makes three
// testing.Benchmark attempts cost what one default-length run does.
func timed(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("floors iterate testing.Benchmark; skipped in -short")
	}
	if raceEnabled {
		t.Skip("a wall-clock ratio is not meaningful under the race detector")
	}
	benchtime := flag.Lookup("test.benchtime").Value
	old := benchtime.String()
	benchtime.Set("333ms")
	t.Cleanup(func() { benchtime.Set(old) })
}

// hold asserts one floor. Wall-clock readings on a shared host are noisy on
// one side only, so a loss must reproduce on one fresh measurement before it
// fails the test (the rule TestStealingBoundsIntraRegionTailLatency uses).
func hold(t *testing.T, measure func() (ok bool, reading string)) {
	t.Helper()
	ok, reading := measure()
	if !ok {
		t.Logf("%s; re-measuring once", reading)
		ok, reading = measure()
	}
	if !ok {
		t.Error(reading)
		return
	}
	t.Log(reading)
}

// bestOf3 is the minimum ns/op of three testing.Benchmark runs of body, the
// standard robust estimator against scheduler and frequency noise.
func bestOf3(t *testing.T, body func(b *testing.B)) float64 {
	t.Helper()
	best := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		r := testing.Benchmark(body)
		if r.N == 0 {
			t.Fatal("benchmark body failed")
		}
		best = min(best, float64(r.T.Nanoseconds())/float64(r.N))
	}
	return best
}

// workload is one floor dataset: compressed, with its per-partition model
// templates and the seed of the tree every session over it scores.
type workload struct {
	name     string
	names    []string
	data     *alignment.CompressedData
	models   []*model.Model
	treeSeed int64
}

func newWorkload(t *testing.T, taxa, sites, partLen int, scale float64, seed, treeSeed int64) *workload {
	t.Helper()
	ds, err := seqsim.GridDataset(taxa, sites, partLen, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.Model, len(d.Parts))
	for i, p := range d.Parts {
		if models[i], err = model.DefaultFor(p, 4, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	return &workload{name: ds.Name, names: ds.Alignment.Names, data: d, models: models, treeSeed: treeSeed}
}

// rig is a workload set up on goroutine workers the way the facade sets a
// Dataset up: one pool, one immutable core.Shared, and the tree its sessions
// score. The kernel backend is always pinned, so PLK_BACKEND cannot move a
// floor.
type rig struct {
	w    *workload
	pool *parallel.Pool
	sh   *core.Shared
	tr   *tree.Tree
}

func (w *workload) rig(t *testing.T, threads int, backend core.Backend) *rig {
	t.Helper()
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	sh, err := core.NewSharedWith(w.data, 4, threads, backend)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(w.names, len(w.data.Parts), tree.RandomOptions{Seed: w.treeSeed})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{w: w, pool: pool, sh: sh, tr: tr}
}

// session opens one more session on the rig: own model copies, own view of
// the pool.
func (r *rig) session(tb testing.TB, opts core.Options) *core.Engine {
	tb.Helper()
	ms := make([]*model.Model, len(r.w.models))
	for i, m := range r.w.models {
		ms[i] = m.Clone()
	}
	eng, err := core.NewSession(r.sh, r.tr, ms, r.pool.Session(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// newviewNsOp times one full newview traversal (every inner CLV recomputed)
// of a warmed one-thread session.
func newviewNsOp(t *testing.T, w *workload, backend core.Backend, specialize bool) float64 {
	t.Helper()
	eng := w.rig(t, 1, backend).session(t, core.Options{Specialize: specialize})
	root := eng.Tree.Tips[0].Back
	eng.Traverse(root, false, nil)
	return bestOf3(t, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.InvalidateCLVs()
			eng.Traverse(root, false, nil)
		}
	})
}

// TestFusedNewviewFloor: fused >= 2.0x generic (2.4x where the AVX plane
// kernels run) on one full newview traversal
// of a DNA dataset large enough to be kernel-bound, with enough taxa that
// inner/inner P applications (what the fused unrolling targets) carry about
// half the child slots.
func TestFusedNewviewFloor(t *testing.T) {
	timed(t)
	w := newWorkload(t, 48, 8192, 8192, 1.0, floorSeed+29, floorSeed+1)
	floor := planesFloor(fusedNewviewFloor, fusedNewviewFloorVector)
	hold(t, func() (bool, string) {
		generic := newviewNsOp(t, w, core.BackendGeneric, true)
		fused := newviewNsOp(t, w, core.BackendFused, true)
		return generic/fused >= floor,
			fmt.Sprintf("fused newview %.2fx generic at 1 thread, %d-lane planes (floor %.1fx; generic %.0f ns/op, fused %.0f ns/op; %s, %d patterns)",
				generic/fused, core.VectorLanes(core.BackendFused, 4), floor, generic, fused, w.name, w.data.TotalPatterns)
	})
}

// TestTipTableFloor: the tip-case specialization >= 2.2x the generic kernels
// (4.7x where the AVX plane kernels run) on a tip-heavy dataset (6 taxa: 5 of the 8 child slots are tips). The
// column count is fixed so the worker share stays above the lookup-table
// threshold: the table path is measured, not the generic fallback.
func TestTipTableFloor(t *testing.T) {
	timed(t)
	w := newWorkload(t, 6, 2048, 2048, 1.0, floorSeed+17, floorSeed+1)
	floor := planesFloor(tipTableFloor, tipTableFloorVector)
	hold(t, func() (bool, string) {
		generic := newviewNsOp(t, w, core.BackendFused, false)
		table := newviewNsOp(t, w, core.BackendFused, true)
		return generic/table >= floor,
			fmt.Sprintf("tip-table newview %.2fx generic at 1 thread, %d-lane planes (floor %.2fx; generic %.0f ns/op, table %.0f ns/op; %s, %d patterns)",
				generic/table, core.VectorLanes(core.BackendFused, 4), floor, generic, table, w.name, w.data.TotalPatterns)
	})
}

// TestPMatricesFloor: where model.VectorPMatrix, one 4-state PMatrices call
// at four categories (a span's set-up per child branch) is >= 2.5x faster on
// the AVX2 kernel than on the scalar code, the same bits either way.
func TestPMatricesFloor(t *testing.T) {
	timed(t)
	if !model.VectorPMatrix() {
		t.Skip("the AVX2 PMatrices kernel does not run on this host")
	}
	m, err := model.GTR([]float64{0.31, 0.19, 0.27, 0.23}, []float64{1.3, 2.8, 0.6, 1.1, 3.5, 1}, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4*16)
	nsOp := func(vector bool) float64 {
		defer model.SetVectorPMatrix(model.SetVectorPMatrix(vector))
		return bestOf3(t, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.PMatrices(0.01+0.03*float64(i&15), dst)
			}
		})
	}
	hold(t, func() (bool, string) {
		scalar, lane := nsOp(false), nsOp(true)
		return scalar/lane >= pmatricesFloor,
			fmt.Sprintf("4-state PMatrices at 4 categories: AVX2 kernel %.2fx the scalar code (floor %.1fx; scalar %.1f ns/op, kernel %.1f ns/op)",
				scalar/lane, pmatricesFloor, scalar, lane)
	})
}

// TestProteinApplyFloor: where model.VectorApplyCols, the 20-state P
// application of one pattern at four categories — four ApplyCols over
// column-major P blocks, what a protein inner child costs per newview — is
// >= proteinApplyFloor x faster on the AVX kernel than on the scalar loop,
// the same bits either way.
func TestProteinApplyFloor(t *testing.T) {
	timed(t)
	if !model.VectorApplyCols() {
		t.Skip("the AVX ApplyCols kernel does not run on this host")
	}
	const s, cats = 20, 4
	m, err := model.SYN20(cats, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pm, x, dst := make([]float64, cats*s*s), make([]float64, cats*s), make([]float64, s)
	m.PMatrices(0.1, pm)
	for i := range x {
		x[i] = 0.05 + 0.1*float64(i%7)
	}
	nsOp := func(vector bool) float64 {
		defer model.SetVectorApplyCols(model.SetVectorApplyCols(vector))
		return bestOf3(t, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for c := 0; c < cats; c++ {
					model.ApplyCols(dst, pm[c*s*s:(c+1)*s*s], x[c*s:(c+1)*s])
				}
			}
		})
	}
	hold(t, func() (bool, string) {
		scalar, lane := nsOp(false), nsOp(true)
		return scalar/lane >= proteinApplyFloor,
			fmt.Sprintf("20-state P application at 4 categories: AVX kernel %.2fx the scalar loop (floor %.1fx; scalar %.1f ns/op, kernel %.1f ns/op)",
				scalar/lane, proteinApplyFloor, scalar, lane)
	})
}

// kernelWorkload is one simulated partition of the given alphabet, duplicate
// columns kept so the pattern count is the column count.
func kernelWorkload(t *testing.T, dt alignment.DataType, taxa, patterns int) *workload {
	t.Helper()
	names := seqsim.TaxaNames(taxa)
	tr, err := tree.Random(names, 1, tree.RandomOptions{Seed: floorSeed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.GTR(nil, nil, 4, 0.8)
	if dt == alignment.AA {
		m, err = model.SYN20(4, 0.8)
	}
	if err != nil {
		t.Fatal(err)
	}
	a, parts, err := seqsim.Simulate(tr, []*model.Model{m}, []int{patterns}, seqsim.Options{Seed: floorSeed + 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	return &workload{name: dt.String(), names: names, data: d, models: []*model.Model{m}, treeSeed: floorSeed + 1}
}

// genericNsPerOp is the wall time of one full generic newview traversal
// without tip tables over what the op accounting prices it at (opcost.go),
// P(z) blocks memoized on both sides of the quotient.
func genericNsPerOp(t *testing.T, w *workload) float64 {
	t.Helper()
	eng := w.rig(t, 1, core.BackendGeneric).session(t, core.Options{})
	root := eng.Tree.Tips[0].Back
	eng.Traverse(root, false, nil)
	eng.Exec.Stats().Reset()
	eng.InvalidateCLVs()
	eng.Traverse(root, false, nil)
	return newviewNsOp(t, w, core.BackendGeneric, false) / eng.Exec.Stats().TotalOps
}

// TestProteinMaddFloor: a priced op of the 20-state generic newview costs at
// most proteinMaddCeiling x one of the 4-state generic newview
// (proteinMaddCeilingVector where the AVX column mat-vec runs), both measured
// here. Every 20-state partition runs the generic body on every backend, and
// its s² loop is model.ApplyCols; the 4-state arm pays applyRows' call per
// 4 x 4 block, which is why the quotient sits well below 1.
func TestProteinMaddFloor(t *testing.T) {
	timed(t)
	aa, dna := kernelWorkload(t, alignment.AA, 16, 512), kernelWorkload(t, alignment.DNA, 16, 8192)
	ceiling := proteinMaddCeiling
	if model.VectorApplyCols() {
		ceiling = proteinMaddCeilingVector
	}
	hold(t, func() (bool, string) {
		ns20, ns4 := genericNsPerOp(t, aa), genericNsPerOp(t, dna)
		return ns20/ns4 <= ceiling,
			fmt.Sprintf("generic newview: %.3f ns a priced op at s = 20, %.3f at s = 4: %.2fx (ceiling %.2fx, column mat-vec kernel %v)",
				ns20, ns4, ns20/ns4, ceiling, model.VectorApplyCols())
	})
}

// TestBatchedBootstrapFloor: scoring R = 32 replicates in one batched session
// (newview once, one R-wide evaluate sweep) >= 2.0x per replicate over R
// dedicated single-replicate sessions, each paying its own set-up, traversal
// and evaluate. Both arms share one core.Shared (hence one schedule), one
// topology and the same replicate weight vectors.
func TestBatchedBootstrapFloor(t *testing.T) {
	timed(t)
	const R = 32
	grid := newWorkload(t, 20, 20000, 1000, 0.01, floorSeed, floorSeed+1)
	ws, err := core.NewWeightSet(grid.data, R, floorSeed+3)
	if err != nil {
		t.Fatal(err)
	}
	hold(t, func() (bool, string) {
		r := grid.rig(t, 1, core.BackendFused)
		eng := r.session(t, core.Options{Specialize: true})
		if _, err := eng.LogLikelihoodBatch(ws); err != nil { // warm CLVs and batch buffers
			t.Fatal(err)
		}
		batched := bestOf3(t, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.InvalidateCLVs()
				if _, err := eng.LogLikelihoodBatch(ws); err != nil {
					b.Fatal(err)
				}
			}
		}) / R
		// One iteration = one replicate; the index cycles through all R
		// weight vectors.
		rpl := 0
		independent := bestOf3(t, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := r.session(b, core.Options{Specialize: true})
				if err := e.SetWeightOverride(ws.Replicate(rpl % R)); err != nil {
					b.Fatal(err)
				}
				e.LogLikelihood()
				rpl++
			}
		})
		return independent/batched >= batchedBootstrapFloor,
			fmt.Sprintf("batched bootstrap %.2fx independent per replicate at 1 thread, R=%d (floor %.1fx; batched %.0f ns/rep = %.0f reps/s, independent %.0f ns/rep = %.0f reps/s; %s)",
				independent/batched, R, batchedBootstrapFloor, batched, 1e9/batched, independent, 1e9/independent, grid.name)
	})
}

// TestStealMigrationCeiling: on the honestly priced small grid under
// weighted + steal, more than half of all processed patterns migrating means
// the static pack is systematically mispriced — stealing is papering over a
// scheduling bug, not absorbing noise.
//
// That reading needs workers that actually ran in parallel, so the test runs
// at T = min(NumCPU-1, 4), benchmark/'s own rule for a thread count the host
// runs in parallel, and skips when that is below 2. Threads <= NumCPU is not
// that condition: with the test binary's own goroutines on the same cores, a
// 2-vCPU box reads 43-50% migrated at T = 2 (55.6% at T = 4) on a pack that
// is priced correctly — whichever worker the OS runs first legitimately
// swallows the deques of workers that have not started yet.
func TestStealMigrationCeiling(t *testing.T) {
	timed(t)
	threads := min(runtime.NumCPU()-1, 4)
	if threads < 2 {
		t.Skipf("%d CPUs cannot run 2 workers in parallel beside the test binary", runtime.NumCPU())
	}
	const passes = 4
	grid := newWorkload(t, 20, 20000, 1000, 0.01, floorSeed, floorSeed+1)
	hold(t, func() (bool, string) {
		r := grid.rig(t, threads, core.BackendFused)
		eng := r.session(t, core.Options{Specialize: true, Schedule: schedule.Weighted, Steal: true})
		root := eng.Tree.Tips[0].Back
		eng.Traverse(root, false, nil) // warm the CLVs and caches
		probe := measure(r.pool, func() {
			for i := 0; i < passes; i++ {
				eng.InvalidateCLVs()
				eng.Traverse(root, false, nil)
				eng.Evaluate(root, nil)
			}
		})
		migrated := probe.Stolen / probeProcessedPatterns(passes, grid.data.NumTaxa(), grid.data.TotalPatterns)
		return migrated <= stealMigrationCeiling,
			fmt.Sprintf("%.0f%% of patterns migrated at %d threads on %d CPUs (ceiling %.0f%%; per-worker steals %v, time imbalance %.3f) — above the ceiling the static pack is mispriced: fix the cost model",
				100*migrated, threads, runtime.NumCPU(), 100*stealMigrationCeiling, probe.Steals, probe.BusyImbalance())
	})
}
