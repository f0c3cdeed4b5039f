package core

import (
	"strings"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// The kernel-backend acceptance suite: the fused backend (cat-major layout,
// unrolled 4-state kernels) must be bit-for-bit identical to the generic
// oracle on total lnL, per-partition lnLs, per-site lnLs, and both-sided
// branch derivatives — across executors, steal on/off, 1 and 4 Gamma
// categories, and under forced 2^-256 scaling. Exact == comparisons
// throughout: the backends promise the same floating-point accumulation
// order, not just the same math.

// backendResult extends stealResult with per-partition site log likelihoods.
type backendResult struct {
	stealResult
	sites [][]float64
}

func runBackendResult(t *testing.T, eng *Engine) backendResult {
	t.Helper()
	r := backendResult{stealResult: runStealResult(t, eng)}
	for ip := 0; ip < eng.NumPartitions(); ip++ {
		r.sites = append(r.sites, eng.SiteLogLikelihoods(ip))
	}
	return r
}

func requireBackendIdentical(t *testing.T, label string, gen, fus backendResult) {
	t.Helper()
	requireBitIdentical(t, label, gen.stealResult, fus.stealResult)
	for ip := range gen.sites {
		for j := range gen.sites[ip] {
			if gen.sites[ip][j] != fus.sites[ip][j] {
				t.Fatalf("%s: partition %d site %d lnL %v != %v (must be bit-identical)",
					label, ip, j, gen.sites[ip][j], fus.sites[ip][j])
			}
		}
	}
}

// TestBackendBitIdentity compares the two backends configuration by
// configuration on mixed DNA+AA data: Pool sessions, Sim, and Sequential
// executors, chunked execution with stealing on and off, at 1 and 4 Gamma
// categories. Each configuration is built twice — once per backend — over
// backend-specific Shared state; within a configuration the executor,
// schedule, and reduction order are identical, so any difference would be the
// fused kernels' doing. It runs once per realisation of the fused newview
// planes (forEachPlanes).
func TestBackendBitIdentity(t *testing.T) { forEachPlanes(t, backendBitIdentity) }

func backendBitIdentity(t *testing.T) {
	for _, cats := range []int{1, 4} {
		d, models := stealFixture(t, cats, int64(300+cats))
		const threads = 3
		pool, err := parallel.NewPool(threads)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()

		mk := func(backend Backend, exec parallel.Executor, nThreads int, opts Options) *Engine {
			t.Helper()
			sh, err := NewSharedWith(d, cats, nThreads, backend)
			if err != nil {
				t.Fatal(err)
			}
			if sh.Backend != backend {
				t.Fatalf("shared backend %v, want %v", sh.Backend, backend)
			}
			tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]*model.Model, len(models))
			for i, m := range models {
				ms[i] = m.Clone()
			}
			eng, err := NewSession(sh, tr, ms, exec, opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		type config struct {
			name    string
			exec    func() parallel.Executor
			threads int
			opts    Options
			steal   bool // SetStealing target when opts.Steal
		}
		sim := func() parallel.Executor {
			s, err := parallel.NewSim(threads)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		configs := []config{
			{"pool", func() parallel.Executor { return pool.Session() }, threads,
				Options{Specialize: true, Schedule: schedule.Weighted}, false},
			{"pool-steal", func() parallel.Executor { return pool.Session() }, threads,
				Options{Specialize: true, Schedule: schedule.Weighted, Steal: true, MinChunk: 16}, true},
			{"pool-steal-off", func() parallel.Executor { return pool.Session() }, threads,
				Options{Specialize: true, Schedule: schedule.Weighted, Steal: true, MinChunk: 16}, false},
			{"sim", sim, threads, Options{Specialize: true}, false},
			{"sequential", func() parallel.Executor { return parallel.NewSequential() }, 1,
				Options{Specialize: true}, false},
			{"sequential-nospec", func() parallel.Executor { return parallel.NewSequential() }, 1,
				Options{Specialize: false}, false},
		}
		for _, cfg := range configs {
			engGen := mk(BackendGeneric, cfg.exec(), cfg.threads, cfg.opts)
			engFus := mk(BackendFused, cfg.exec(), cfg.threads, cfg.opts)
			if cfg.opts.Steal {
				engGen.SetStealing(cfg.steal)
				engFus.SetStealing(cfg.steal)
			}
			resGen := runBackendResult(t, engGen)
			resFus := runBackendResult(t, engFus)
			requireBackendIdentical(t, cfg.name+"/generic-vs-fused", resGen, resFus)
		}
	}
}

// forcedScalingEngine opens a single-thread session of the given backend on a
// deep (220-taxon) long-branch DNA tree whose CLVs underflow 2^-256, so every
// traversal exercises the rescaling path.
func forcedScalingEngine(t *testing.T, backend Backend) *Engine {
	t.Helper()
	const taxa = 220
	a := randomAlignment(t, taxa, 60, alignment.DNA, 777)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharedWith(d, 2, 1, backend)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(taxa), 1, tree.RandomOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewSession(sh, tr, []*model.Model{tipCaseModels(t, alignment.DNA, 2, 5.0)}, parallel.NewSequential(), Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range eng.Tree.Branches() {
		tree.SetBranchLength(b, 0, 1.4)
	}
	return eng
}

// TestBackendBitIdentityUnderForcedScaling drives the 2^-256 scaling path on
// a deep long-branch DNA tree under both backends: total lnL and every
// per-pattern scaling exponent must match exactly, and scaling must actually
// fire (otherwise the fixture tests nothing). Under both realisations of the
// fused newview planes.
func TestBackendBitIdentityUnderForcedScaling(t *testing.T) {
	forEachPlanes(t, backendBitIdentityUnderForcedScaling)
}

func backendBitIdentityUnderForcedScaling(t *testing.T) {
	engGen, engFus := forcedScalingEngine(t, BackendGeneric), forcedScalingEngine(t, BackendFused)
	lg, lf := engGen.LogLikelihood(), engFus.LogLikelihood()
	if err := CheckFinite(lf); err != nil {
		t.Fatal(err)
	}
	if lg != lf {
		t.Errorf("scaled lnL: generic %v != fused %v (must be bit-identical)", lg, lf)
	}
	fired := false
	for n := range engGen.scales {
		for i := range engGen.scales[n] {
			if engGen.scales[n][i] > 0 {
				fired = true
			}
			if engGen.scales[n][i] != engFus.scales[n][i] {
				t.Fatalf("node %d pattern %d: scaling exponent generic %d != fused %d",
					n, i, engGen.scales[n][i], engFus.scales[n][i])
			}
		}
	}
	if !fired {
		t.Fatal("scaling never triggered; fixture misconfigured")
	}
}

// TestBackendSelection pins the dispatch rules: the fused backend runs the
// unrolled kernels only on 4-state partitions and the layout-aware generic
// loop elsewhere; the generic backend never selects the fused kernels; the
// layouts follow the backend.
func TestBackendSelection(t *testing.T) {
	if b := bodyFor(BackendFused, alignment.DNA.States()); b != bodyFused4 {
		t.Errorf("fused backend on DNA selected body %d, want bodyFused4", b)
	}
	if b := bodyFor(BackendFused, alignment.AA.States()); b != bodyGeneric {
		t.Errorf("fused backend on AA selected body %d, want the generic fallback", b)
	}
	if b := bodyFor(BackendGeneric, alignment.DNA.States()); b != bodyGeneric {
		t.Errorf("generic backend on DNA selected body %d, want bodyGeneric", b)
	}
	if k := layoutKindFor(BackendFused); k != LayoutCatMajor {
		t.Errorf("fused layout %v, want cat-major", k)
	}
	if k := layoutKindFor(BackendGeneric); k != LayoutPatternMajor {
		t.Errorf("generic layout %v, want pattern-major", k)
	}
}

// TestBackendParseAndResolve covers ParseBackend round-trips, the PLK_BACKEND
// environment resolution (including rejection of junk values), and that a
// session inherits the backend of its shared state.
func TestBackendParseAndResolve(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{
		{"", BackendAuto}, {"auto", BackendAuto},
		{"generic", BackendGeneric}, {"GENERIC", BackendGeneric}, {"oracle", BackendGeneric},
		{"fused", BackendFused}, {"fused4", BackendFused}, {"vectorized", BackendFused},
	} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBackend(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseBackend("turbo"); err == nil {
		t.Error("ParseBackend accepted junk")
	}
	for _, b := range []Backend{BackendAuto, BackendGeneric, BackendFused} {
		rt, err := ParseBackend(b.String())
		if err != nil || rt != b {
			t.Errorf("round-trip %v: got (%v, %v)", b, rt, err)
		}
	}

	t.Setenv("PLK_BACKEND", "generic")
	if got, err := resolveBackend(BackendAuto); err != nil || got != BackendGeneric {
		t.Errorf("auto under PLK_BACKEND=generic resolved to (%v, %v)", got, err)
	}
	// An explicit choice must ignore the environment.
	if got, err := resolveBackend(BackendFused); err != nil || got != BackendFused {
		t.Errorf("explicit fused under PLK_BACKEND=generic resolved to (%v, %v)", got, err)
	}
	t.Setenv("PLK_BACKEND", "bogus")
	if _, err := resolveBackend(BackendAuto); err == nil || !strings.Contains(err.Error(), "PLK_BACKEND") {
		t.Errorf("bogus PLK_BACKEND: err = %v, want PLK_BACKEND parse error", err)
	}
	t.Setenv("PLK_BACKEND", "")
	if got, err := resolveBackend(BackendAuto); err != nil || got != BackendFused {
		t.Errorf("auto with empty PLK_BACKEND resolved to (%v, %v), want fused default", got, err)
	}

	// A session runs the backend of its shared state: the backend fixes the
	// CLV layout, which is shared property.
	a := randomAlignment(t, 6, 40, alignment.DNA, 99)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharedWith(d, 4, 1, BackendGeneric)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(6), 1, tree.RandomOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := tipCaseModels(t, alignment.DNA, 4, 0.8)
	eng, err := NewSession(sh, tr, []*model.Model{m}, parallel.NewSequential(), Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Backend() != BackendGeneric {
		t.Errorf("session backend %v, want generic (inherited from shared)", eng.Backend())
	}
}
