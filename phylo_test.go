package phylo

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
)

const tinyPhylip = `6 40
t0  ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
t1  ACGTACGTACTTACGTACGAACGTACGTACGTACGTACGT
t2  ACGAACGTACGTACGTACGTACGTACCTACGTACGTACGT
t3  TCGTACGTACGTACGGACGTACGTACGTACGTACGTACCT
t4  ACGTACGTACGTACGTACGTAGGTACGTACGAACGTACGT
t5  ACGTACCTACGTACGTACGTACGTACGTACGTAAGTACGT
`

// openAnalysis builds a Dataset and opens one session over it; the test's
// cleanup closes the session, then the dataset.
func openAnalysis(t *testing.T, al *Alignment, do DatasetOptions, ao AnalysisOptions) *Analysis {
	t.Helper()
	ds, err := NewDataset(al, do)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	an, err := ds.NewAnalysis(ao)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { an.Close() })
	return an
}

func TestReadPhylipAndAnalyze(t *testing.T) {
	al, err := ReadPhylip(strings.NewReader(tinyPhylip))
	if err != nil {
		t.Fatal(err)
	}
	if al.NumTaxa() != 6 || al.NumSites() != 40 || al.NumPartitions() != 1 {
		t.Fatalf("shape: %d taxa %d sites %d parts", al.NumTaxa(), al.NumSites(), al.NumPartitions())
	}
	an := openAnalysis(t, al, DatasetOptions{}, AnalysisOptions{})
	lnl := an.LogLikelihood()
	if lnl >= 0 || math.IsNaN(lnl) {
		t.Errorf("lnL = %v", lnl)
	}
	better, err := an.OptimizeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if better < lnl {
		t.Errorf("optimization decreased lnL: %v -> %v", lnl, better)
	}
	alpha, err := an.Alpha(0)
	if err != nil || alpha <= 0 {
		t.Errorf("alpha = %v, %v", alpha, err)
	}
	if _, err := an.Alpha(5); err == nil {
		t.Error("expected error for bad partition index")
	}
	nwk := an.TreeNewick()
	if !strings.HasPrefix(nwk, "(") || !strings.HasSuffix(nwk, ";") {
		t.Errorf("newick malformed: %s", nwk)
	}
}

func TestPartitionedAnalysisStrategies(t *testing.T) {
	// The strategies do identical work cut into different regions: every
	// result bit agrees, only the region count differs.
	type result struct {
		lnl     float64
		alphas  []float64
		trees   []string
		regions int64
	}
	results := map[Strategy]result{}
	for _, strat := range []Strategy{OldPar, NewPar} {
		al, err := ReadPhylip(strings.NewReader(tinyPhylip))
		if err != nil {
			t.Fatal(err)
		}
		if err := al.SetUniformPartitions(DNA, 20); err != nil {
			t.Fatal(err)
		}
		an := openAnalysis(t, al, DatasetOptions{}, AnalysisOptions{
			Strategy:                  strat,
			PerPartitionBranchLengths: true,
			Seed:                      7,
		})
		lnl, err := an.OptimizeModel(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res := result{lnl: lnl, regions: an.Stats().Regions}
		for k := 0; k < al.NumPartitions(); k++ {
			a, err := an.Alpha(k)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := an.TreeNewickForPartition(k)
			if err != nil {
				t.Fatal(err)
			}
			res.alphas = append(res.alphas, a)
			res.trees = append(res.trees, nw)
		}
		results[strat] = res
	}
	o, n := results[OldPar], results[NewPar]
	if math.Float64bits(o.lnl) != math.Float64bits(n.lnl) {
		t.Errorf("strategies disagree: %v vs %v", o.lnl, n.lnl)
	}
	for k := range o.alphas {
		if math.Float64bits(o.alphas[k]) != math.Float64bits(n.alphas[k]) {
			t.Errorf("partition %d: alpha %v vs %v", k, o.alphas[k], n.alphas[k])
		}
		if o.trees[k] != n.trees[k] {
			t.Errorf("partition %d: tree %s vs %s", k, o.trees[k], n.trees[k])
		}
	}
	if n.regions == 0 || o.regions <= n.regions {
		t.Errorf("regions: oldPAR %d, newPAR %d; want oldPAR above newPAR above 0", o.regions, n.regions)
	}
}

func TestVirtualThreadsAndPlatformPricing(t *testing.T) {
	al, _ := ReadPhylip(strings.NewReader(tinyPhylip))
	al.SetUniformPartitions(DNA, 10)
	an := openAnalysis(t, al, DatasetOptions{Threads: 8, VirtualThreads: true},
		AnalysisOptions{PerPartitionBranchLengths: true, Strategy: NewPar})
	if _, err := an.OptimizeBranchLengths(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Nehalem", "Clovertown", "Barcelona", "x4600"} {
		s, err := an.PlatformSeconds(name)
		if err != nil || s <= 0 {
			t.Errorf("platform %s: %v, %v", name, s, err)
		}
	}
	if _, err := an.PlatformSeconds("VAX"); err == nil {
		t.Error("expected error for unknown platform")
	}
}

func TestSearchViaFacade(t *testing.T) {
	al, err := SimulateGrid(10, 5000, 1000, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	an := openAnalysis(t, al, DatasetOptions{}, AnalysisOptions{Strategy: NewPar, Seed: 11})
	before := an.LogLikelihood()
	res, err := an.SearchWith(context.Background(), SearchOptions{MaxRounds: 1, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.LnL < before {
		t.Errorf("search decreased lnL %v -> %v", before, res.LnL)
	}
	if res.MovesTried == 0 {
		t.Error("no moves tried")
	}
}

func TestSimulateRealWorldFacade(t *testing.T) {
	al, err := SimulateRealWorld("r125_19839", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if al.NumTaxa() != 125 || al.NumPartitions() != 34 {
		t.Errorf("shape %d taxa %d parts", al.NumTaxa(), al.NumPartitions())
	}
	if _, err := SimulateRealWorld("r999", 0.01, 5); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestPartitionFileRoundTripFacade(t *testing.T) {
	al, _ := ReadPhylip(strings.NewReader(tinyPhylip))
	if err := al.SetPartitionsFromReader(strings.NewReader("DNA, g0 = 1-20\nDNA, g1 = 21-40\n")); err != nil {
		t.Fatal(err)
	}
	if al.NumPartitions() != 2 {
		t.Fatalf("partitions = %d", al.NumPartitions())
	}
	var buf bytes.Buffer
	if err := al.WritePartitions(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1-20") {
		t.Errorf("partition output: %s", buf.String())
	}
	var aln bytes.Buffer
	if err := al.WritePhylip(&aln); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPhylip(&aln)
	if err != nil || back.NumTaxa() != 6 {
		t.Errorf("phylip roundtrip failed: %v", err)
	}
}

func TestStartTreeNewickRespected(t *testing.T) {
	al, _ := ReadPhylip(strings.NewReader(tinyPhylip))
	fixed := "(t0:0.1,t1:0.1,(t2:0.1,(t3:0.1,(t4:0.1,t5:0.1):0.1):0.1):0.1);"
	an := openAnalysis(t, al, DatasetOptions{}, AnalysisOptions{StartTreeNewick: fixed})
	if got := an.TreeNewick(); !strings.Contains(got, "t5") {
		t.Errorf("tree lost taxa: %s", got)
	}
	if _, err := an.ds.NewAnalysis(AnalysisOptions{StartTreeNewick: "((bad));"}); err == nil {
		t.Error("expected error for bad newick")
	}
	if _, err := NewDataset(nil, DatasetOptions{}); err == nil {
		t.Error("expected error for nil alignment")
	}
}

func TestRobinsonFouldsFacade(t *testing.T) {
	taxa := []string{"t0", "t1", "t2", "t3"}
	a := "((t0:1,t1:1):1,(t2:1,t3:1):1);"
	b := "((t0:1,t2:1):1,(t1:1,t3:1):1);"
	d, err := RobinsonFoulds(a, a, taxa)
	if err != nil || d != 0 {
		t.Errorf("RF(a,a) = %d, %v", d, err)
	}
	d, err = RobinsonFoulds(a, b, taxa)
	if err != nil || d != 2 {
		t.Errorf("RF(a,b) = %d, %v; want 2", d, err)
	}
	if _, err := RobinsonFoulds("bad", a, taxa); err == nil {
		t.Error("expected parse error")
	}
	if _, err := RobinsonFoulds(a, "bad", taxa); err == nil {
		t.Error("expected parse error")
	}
}

// --- Dataset / session API ---

// gridAlignment builds a small partitioned DNA alignment for session tests.
func gridAlignment(t *testing.T) *Alignment {
	t.Helper()
	al, err := SimulateGrid(10, 5000, 1000, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

// TestConcurrentSessionsMatchSequential is the acceptance test of the
// Dataset/session split: N concurrent sessions over one Dataset (sharing
// one worker pool) must reproduce the single-session log likelihood
// bit-for-bit, and each session sees only its own statistics. Run under
// -race in CI.
func TestConcurrentSessionsMatchSequential(t *testing.T) {
	al := gridAlignment(t)
	opts := AnalysisOptions{Strategy: NewPar, PerPartitionBranchLengths: true, Seed: 17}

	// Baseline: one session, run alone.
	ds, err := NewDataset(al, DatasetOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base, err := ds.NewAnalysis(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.OptimizeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseRegions := base.Stats().Regions
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// Three concurrent sessions over the same dataset.
	const n = 3
	got := make([]float64, n)
	regions := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		an, err := ds.NewAnalysis(opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, an *Analysis) {
			defer wg.Done()
			defer an.Close()
			got[i], errs[i] = an.OptimizeModel(context.Background())
			regions[i] = an.Stats().Regions
		}(i, an)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("session %d lnL = %v, want bit-identical %v", i, got[i], want)
		}
		if regions[i] != baseRegions {
			t.Errorf("session %d saw %d regions, want its own count %d (per-session stats)", i, regions[i], baseRegions)
		}
	}
}

// TestCancelMidSearch cancels a context from inside the progress stream and
// checks that the search returns promptly with a usable partial result and
// a session that is still fully operational.
func TestCancelMidSearch(t *testing.T) {
	al := gridAlignment(t)
	ds, err := NewDataset(al, DatasetOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events []ProgressEvent
	an, err := ds.NewAnalysis(AnalysisOptions{
		Strategy: NewPar,
		Seed:     11,
		Progress: func(ev ProgressEvent) {
			events = append(events, ev)
			cancel() // cancel after the first completed round
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()

	start := time.Now()
	res, err := an.SearchWith(ctx, SearchOptions{MaxRounds: 50, Radius: 2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events before cancellation")
	}
	if res.Rounds >= 3 {
		t.Errorf("search kept going for %d rounds after cancellation", res.Rounds)
	}
	if math.IsNaN(res.LnL) || math.IsInf(res.LnL, 0) || res.LnL >= 0 {
		t.Errorf("partial result lnL = %v, want finite negative", res.LnL)
	}
	// The session must remain consistent and usable after cancellation.
	lnl := an.LogLikelihood()
	if math.IsNaN(lnl) || lnl >= 0 {
		t.Errorf("post-cancel LogLikelihood = %v", lnl)
	}
	if lnl != res.LnL {
		t.Errorf("post-cancel evaluation %v != reported partial result %v", lnl, res.LnL)
	}
	if nwk := an.TreeNewick(); !strings.HasSuffix(nwk, ";") {
		t.Errorf("post-cancel tree malformed: %q", nwk)
	}
	_ = elapsed // prompt-return is asserted via the round bound above
}

// TestCancelledBeforeStart: a pre-cancelled context must not run any rounds.
func TestCancelledBeforeStart(t *testing.T) {
	al := gridAlignment(t)
	ds, err := NewDataset(al, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(AnalysisOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := an.OptimizeModel(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeModel err = %v, want Canceled", err)
	}
	if _, err := an.SearchWith(ctx, SearchOptions{MaxRounds: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("Search err = %v, want Canceled", err)
	}
}

// TestCloseSemantics: Close is idempotent on both layers and use-after-close
// yields clear errors rather than panics.
func TestCloseSemantics(t *testing.T) {
	al, _ := ReadPhylip(strings.NewReader(tinyPhylip))
	ds, err := NewDataset(al, DatasetOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	an, err := ds.NewAnalysis(AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Close(); err != nil {
		t.Fatalf("first analysis close: %v", err)
	}
	if err := an.Close(); err != nil {
		t.Fatalf("second analysis close not idempotent: %v", err)
	}
	if _, err := an.OptimizeModel(context.Background()); !errors.Is(err, ErrAnalysisClosed) {
		t.Errorf("use-after-close err = %v, want ErrAnalysisClosed", err)
	}
	if lnl := an.LogLikelihood(); !math.IsNaN(lnl) {
		t.Errorf("LogLikelihood after close = %v, want NaN", lnl)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("first dataset close: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("second dataset close not idempotent: %v", err)
	}
	if _, err := ds.NewAnalysis(AnalysisOptions{}); !errors.Is(err, ErrDatasetClosed) {
		t.Errorf("NewAnalysis after close err = %v, want ErrDatasetClosed", err)
	}

	// A dataset closed under a live session: the session reports the
	// dataset error instead of panicking on the dead pool.
	ds2, err := NewDataset(al, DatasetOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	an2, err := ds2.NewAnalysis(AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.Close(); err == nil {
		t.Error("closing a dataset with an open session should report it")
	}
	if _, err := an2.OptimizeModel(context.Background()); !errors.Is(err, ErrDatasetClosed) {
		t.Errorf("session after dataset close err = %v, want ErrDatasetClosed", err)
	}
	an2.Close()
}

// TestCloseDatasetMidAnalysis: closing the dataset while a session is
// mid-optimization must not crash the process — the in-flight run completes
// degraded (serial regions) and subsequent entry points report
// ErrDatasetClosed.
func TestCloseDatasetMidAnalysis(t *testing.T) {
	al := gridAlignment(t)
	ds, err := NewDataset(al, DatasetOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	var once sync.Once
	an, err := ds.NewAnalysis(AnalysisOptions{
		Seed: 13,
		Progress: func(ev ProgressEvent) {
			once.Do(func() {
				// First round done: close the dataset under the running session.
				ds.Close()
				close(closed)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	lnl, err := an.OptimizeModel(context.Background())
	<-closed
	if err != nil {
		t.Fatalf("mid-run close should not fail the in-flight optimization: %v", err)
	}
	if math.IsNaN(lnl) || lnl >= 0 {
		t.Errorf("lnl after mid-run close = %v", lnl)
	}
	if _, err := an.OptimizeModel(context.Background()); !errors.Is(err, ErrDatasetClosed) {
		t.Errorf("next entry point err = %v, want ErrDatasetClosed", err)
	}
}

// TestTreeNewickForPartition: per-partition branch lengths serialize per
// slot; joint estimates collapse every partition onto slot 0.
func TestTreeNewickForPartition(t *testing.T) {
	al, _ := ReadPhylip(strings.NewReader(tinyPhylip))
	if err := al.SetUniformPartitions(DNA, 20); err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(AnalysisOptions{PerPartitionBranchLengths: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if _, err := an.OptimizeBranchLengths(context.Background()); err != nil {
		t.Fatal(err)
	}
	nwk0, err := an.TreeNewickForPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	nwk1, err := an.TreeNewickForPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	if nwk0 != an.TreeNewick() {
		t.Error("TreeNewickForPartition(0) should match TreeNewick")
	}
	if nwk0 == nwk1 {
		t.Error("partitions share branch lengths despite per-partition estimation")
	}
	if _, err := an.TreeNewickForPartition(2); err == nil {
		t.Error("expected range error for partition 2")
	}
	if _, err := an.TreeNewickForPartition(-1); err == nil {
		t.Error("expected range error for partition -1")
	}
}

// TestProgressEvents: model optimization streams per-round events carrying
// the session's region count.
func TestProgressEvents(t *testing.T) {
	al, _ := ReadPhylip(strings.NewReader(tinyPhylip))
	ds, err := NewDataset(al, DatasetOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var events []ProgressEvent
	an, err := ds.NewAnalysis(AnalysisOptions{
		Seed:     3,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if _, err := an.OptimizeModel(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	for i, ev := range events {
		if ev.Phase != PhaseModelOpt {
			t.Errorf("event %d phase = %q", i, ev.Phase)
		}
		if ev.Round != i+1 {
			t.Errorf("event %d round = %d", i, ev.Round)
		}
		if ev.Regions <= 0 {
			t.Errorf("event %d regions = %d", i, ev.Regions)
		}
		if math.IsNaN(ev.LnL) || ev.LnL >= 0 {
			t.Errorf("event %d lnL = %v", i, ev.LnL)
		}
	}
}

// TestDatasetAccessors sanity-checks the dataset surface.
func TestDatasetAccessors(t *testing.T) {
	al, _ := ReadPhylip(strings.NewReader(tinyPhylip))
	ds, err := NewDataset(al, DatasetOptions{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.NumTaxa() != 6 || ds.NumSites() != 40 || ds.NumPartitions() != 1 {
		t.Errorf("shape: %d taxa %d sites %d parts", ds.NumTaxa(), ds.NumSites(), ds.NumPartitions())
	}
	if ds.NumPatterns() <= 0 || ds.NumPatterns() > ds.NumSites() {
		t.Errorf("patterns = %d", ds.NumPatterns())
	}
	if ds.Threads() != 3 {
		t.Errorf("threads = %d", ds.Threads())
	}
	if names := ds.TaxonNames(); len(names) != 6 || names[0] != "t0" {
		t.Errorf("taxon names: %v", names)
	}
	if _, err := NewDataset(nil, DatasetOptions{}); err == nil {
		t.Error("expected error for nil alignment")
	}
	sites, patterns, err := al.CompressionStats()
	if err != nil || sites != 40 || patterns != ds.NumPatterns() {
		t.Errorf("CompressionStats = %d, %d, %v; want 40, %d", sites, patterns, err, ds.NumPatterns())
	}
}

// TestNewDatasetRejectsTooFewTaxa: an unrooted tree needs three tips. The
// readers refuse a two-taxon alignment already; NewDataset refuses one that
// reached it some other way too — with an error, before any session could
// walk a degenerate tree into the kernel's tip-tip panics.
func TestNewDatasetRejectsTooFewTaxa(t *testing.T) {
	if _, err := ReadPhylip(strings.NewReader("2 4\nt0 ACGT\nt1 ACGA\n")); err == nil {
		t.Error("ReadPhylip accepted a 2-taxon alignment")
	}
	raw := &alignment.Alignment{Names: []string{"t0", "t1"}, Seqs: [][]byte{[]byte("ACGT"), []byte("ACGA")}}
	al := &Alignment{raw: raw, parts: alignment.SinglePartition(raw, alignment.DNA, "all")}
	if ds, err := NewDataset(al, DatasetOptions{}); err == nil {
		ds.Close()
		t.Error("NewDataset accepted a 2-taxon alignment")
	}
}

// TestParseScheduleStrategy pins the analysis-facing strategy names: the two
// supported assignments parse; the contiguous-block ablation (an experiment,
// not an option) and the retired run-time repricing names fail with the one
// message that lists what is left.
func TestParseScheduleStrategy(t *testing.T) {
	for name, want := range map[string]ScheduleStrategy{
		"cyclic": ScheduleCyclic, "weighted": ScheduleWeighted,
	} {
		if got, err := ParseScheduleStrategy(name); err != nil || got != want {
			t.Errorf("ParseScheduleStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"block", "contiguous", "measured", "adaptive", "feedback", "round-robin"} {
		_, err := ParseScheduleStrategy(name)
		if err == nil || !strings.Contains(err.Error(), "want cyclic or weighted") {
			t.Errorf("ParseScheduleStrategy(%q) error = %v; want the cyclic-or-weighted rejection", name, err)
		}
	}
}

// TestVectorLanesGauge: a dataset's registry says, per alphabet, which
// realisation its P applications run — at 4 states the host's newview-plane
// lanes under the fused backend and 1 under the generic one, which has no
// planes; at 20 states the column mat-vec's lanes under either backend.
func TestVectorLanesGauge(t *testing.T) {
	al, err := ReadPhylip(strings.NewReader(tinyPhylip))
	if err != nil {
		t.Fatal(err)
	}
	cols := 1.0
	if model.ApplyColsKernel.On() {
		cols = 4
	}
	for _, backend := range []KernelBackend{BackendFused, BackendGeneric} {
		want := map[string]float64{"4": 1, "20": cols}
		if backend == BackendFused {
			want["4"] = float64(core.VectorLanes(core.BackendFused, 4))
		}
		reg := NewMetricsRegistry()
		ds, err := NewDataset(al, DatasetOptions{Backend: backend, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		ds.Close()
		got := map[string]float64{}
		for _, s := range reg.Snapshot() {
			if s.Name == "plk_kernel_vector_lanes" && len(s.Labels) == 2 && s.Labels[0].Value == backend.String() {
				got[s.Labels[1].Value] = s.Value
			}
		}
		if len(got) != 2 || got["4"] != want["4"] || got["20"] != want["20"] {
			t.Errorf("%v: plk_kernel_vector_lanes by states = %v, want %v", backend, got, want)
		}
	}
}
