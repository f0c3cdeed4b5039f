package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// The golden accounting table. Every constant below was recorded at commit
// fb4afa3, while internal/core still had one chunk loop per region kind, four
// span contexts and the KernelBackend interface; the test has to stay green
// without edits to them through any restructuring of the region machinery.
// It pins, for {generic, fused} x {Sequential, Sim(3), Pool(3)} x Specialize
// {on, off} on one mixed DNA + AA + masked DNA
// fixture with a multi-step partial traversal and a 3-lane batch:
//
//   - the result bits (total and per-partition lnL at two roots, both branch
//     derivatives, the batch lanes) — a function of the worker count alone;
//   - the executor's op accounting (TotalOps, CriticalOps, per-kind region
//     counts and critical paths) — a function of worker count and Specialize,
//     the same under both backends because ops are priced in madd units;
//   - the summed per-worker observability scratch (patterns, scalings, span
//     cases), read through a RegionObserver.
//
// The accounting constants have been re-recorded twice since, and nothing
// else. First the op PRICES changed when span set-up stopped computing what
// it has (a P(z) block taken from the worker's memo charges nothing, a
// gathered tip-table row its set-state count x cats x s), so TotalOps,
// CriticalOps and the newview / evaluate KindCritical entries moved. The
// fixture gives every branch z = 1.4, so all but the first block per
// (worker, partition) is a memo hit, which is why they fell by as much as
// they did. Then the sumtable became a pass of the first derivative region
// at its branch, over every partition: the sumtable region count went 1 ->
// 0, its critical path moved under derivative, and the masked partition's
// projection added 1,728 ops to TotalOps. Result bits, the other region
// counts, patterns, scalings and span counters are the fb4afa3 values.
// (The table also had rows for a pool that stole work; they went with
// stealing.)

type goldenResults struct {
	lnl     uint64    // Evaluate at the canonical root under the mask
	perPart [3]uint64 // its per-partition values (masked entry zero)
	lnlFar  uint64    // Evaluate at the far branch after the partial traversal
	d1, d2  [3]uint64 // BranchDerivatives there at z = 0.2
	batch   uint64    // FNV-1a over the bits of the 3-lane batch totals and derivatives
}

type goldenAccounting struct {
	totalOps, criticalOps float64
	kindRegions           [4]int64   // newview, evaluate, sumtable, derivative
	kindCritical          [4]float64 // same order
	patterns, scalings    float64
	tipTip, tipInner      float64
	inner                 float64
}

// goldenObserver sums the per-worker observability scratch of every region.
type goldenObserver struct {
	patterns, scalings, tipTip, tipInner, inner float64
}

func (o *goldenObserver) ObserveRegion(_ parallel.Region, _ time.Time, _ float64, ctxs []parallel.WorkerCtx) {
	for i := range ctxs {
		o.patterns += ctxs[i].Patterns
		o.scalings += ctxs[i].Scalings
		o.tipTip += ctxs[i].SpanTipTip
		o.tipInner += ctxs[i].SpanTipInner
		o.inner += ctxs[i].SpanInner
	}
}

const goldenTaxa = 160

// goldenFixture is 160 taxa over three partitions (DNA 48, AA 20, DNA 24
// sites; the last one is masked in every reduction) under two Gamma
// categories with a high alpha: deep enough that the 2^-256 rescue fires.
func goldenFixture(t *testing.T) (*alignment.CompressedData, []*model.Model) {
	t.Helper()
	lens := []int{48, 20, 24}
	types := []alignment.DataType{alignment.DNA, alignment.AA, alignment.DNA}
	rows := make([][]byte, goldenTaxa)
	for i, n := range lens {
		a := randomAlignment(t, goldenTaxa, n, types[i], int64(7001+i))
		for k := range rows {
			rows[k] = append(rows[k], a.Seqs[k]...)
		}
	}
	al, err := alignment.New(taxaNames(goldenTaxa), rows)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(al, contiguousParts(lens, types), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mDNA, err := model.GTR(nil, nil, 2, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	mAA, err := model.SYN20(2, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	return d, []*model.Model{mDNA, mAA, mDNA}
}

// runGolden drives one session through the recorded sequence: a full
// traversal and masked evaluation at the canonical root, a multi-step partial
// traversal to the deepest inner branch, a masked evaluation and derivatives
// there (whose region projects the sumtable), and the same reductions under a
// 3-lane WeightSet.
func runGolden(t *testing.T, d *alignment.CompressedData, models []*model.Model, backend Backend, exec *parallel.Pool, specialize bool) (goldenResults, goldenAccounting) {
	t.Helper()
	sh, err := NewSharedWith(d, 2, exec.Threads(), backend)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(goldenTaxa), 1, tree.RandomOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Branches() {
		tree.SetBranchLength(b, 0, 1.4)
	}
	ms := make([]*model.Model, len(models))
	for i, m := range models {
		ms[i] = m.Clone()
	}
	obs := &goldenObserver{}
	exec.SetObserver(obs)
	eng, err := NewSession(sh, tr, ms, exec, Options{Specialize: specialize, Layout: cut(t, sh, schedule.Weighted, 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Release()
	mask := []bool{true, true, false}
	bits := math.Float64bits
	var res goldenResults

	root := tr.Tips[0].Back
	eng.TraverseRoot(root)
	lnl, perPart := evaluate1(eng, root, mask)
	res.lnl = bits(lnl)
	for i, v := range perPart {
		res.perPart[i] = bits(v)
	}

	var far *tree.Node
	for _, b := range tr.Branches() {
		if !b.IsTip() && !b.Back.IsTip() {
			far = b
		}
	}
	steps := tree.RootTraversal(nil, far)
	if len(steps) < 3 {
		t.Fatalf("partial traversal to the far branch has %d steps; fixture misconfigured", len(steps))
	}
	eng.executeSteps(steps, mask)
	lnlFar, _ := evaluate1(eng, far, mask)
	res.lnlFar = bits(lnlFar)
	z := []float64{0.2, 0.2, 0.2}
	d1, d2 := make([]float64, 3), make([]float64, 3)
	eng.BranchDerivatives(far, z, mask, nil, d1, d2, nil)
	for i := range d1 {
		res.d1[i], res.d2[i] = bits(d1[i]), bits(d2[i])
	}

	ws, err := NewWeightSet(d, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]float64, 3)
	eng.Evaluate(far, mask, ws, totals, nil)
	bd1, bd2 := make([]float64, 9), make([]float64, 9)
	eng.BranchDerivatives(far, z, mask, ws, bd1, bd2, nil)
	h := uint64(14695981039346656037)
	for _, vs := range [][]float64{totals, bd1, bd2} {
		for _, v := range vs {
			b := bits(v)
			for k := 0; k < 8; k++ {
				h = (h ^ (b >> (8 * k) & 0xff)) * 1099511628211
			}
		}
	}
	res.batch = h

	st := exec.Stats()
	acc := goldenAccounting{
		totalOps: st.TotalOps, criticalOps: st.CriticalOps,
		patterns: obs.patterns, scalings: obs.scalings,
		tipTip: obs.tipTip, tipInner: obs.tipInner, inner: obs.inner,
	}
	for i, k := range []parallel.Region{parallel.RegionNewview, parallel.RegionEvaluate, parallel.RegionSumTable, parallel.RegionDerivative} {
		acc.kindRegions[i] = st.KindRegions[k]
		acc.kindCritical[i] = st.KindCritical[k]
	}
	if st.Regions != acc.kindRegions[0]+acc.kindRegions[1]+acc.kindRegions[2]+acc.kindRegions[3] {
		t.Errorf("%d regions outside the four kernel kinds", st.Regions)
	}
	return res, acc
}

// Recorded at fb4afa3 (see the head of this file). Results depend on the
// worker count only — not on backend, Specialize or executor;
// accounting on worker count and Specialize only.
var (
	goldenResultsT1 = goldenResults{
		lnl:     0xc0d2166675da98a2,
		perPart: [3]uint64{0xc0c1b858847a7168, 0xc0c27474673abfdb, 0x0},
		lnlFar:  0xc0d2166675da98a2,
		d1:      [3]uint64{0xbfd84b9d9ce3425c, 0xbfcbf204c07e9c1e, 0x0},
		d2:      [3]uint64{0x3fc6d3ae4a11c2a8, 0xbfe254370b11869e, 0x0},
		batch:   0x5a9f8321bbaceeea,
	}
	goldenResultsT3 = goldenResults{
		lnl:     0xc0d2166675da98a1,
		perPart: [3]uint64{0xc0c1b858847a7168, 0xc0c27474673abfda, 0x0},
		lnlFar:  0xc0d2166675da98a1,
		d1:      [3]uint64{0xbfd84b9d9ce3425c, 0xbfcbf204c07e9c20, 0x0},
		d2:      [3]uint64{0x3fc6d3ae4a11c2a8, 0xbfe254370b11869c, 0x0},
		batch:   0x20bfb6fa3b577991,
	}
	goldenAccountingT1 = map[bool]goldenAccounting{
		true: {
			totalOps: 6.313744e+06, criticalOps: 6.313744e+06,
			kindRegions:  [4]int64{2, 3, 0, 2},
			kindCritical: [4]float64{6.201704e+06, 65048, 0, 46992},
			patterns:     15012, scalings: 171, tipTip: 116, tipInner: 255, inner: 117,
		},
		false: {
			totalOps: 6.610312e+06, criticalOps: 6.610312e+06,
			kindRegions:  [4]int64{2, 3, 0, 2},
			kindCritical: [4]float64{6.497216e+06, 66104, 0, 46992},
			patterns:     15012, scalings: 171, tipTip: 116, tipInner: 255, inner: 117,
		},
	}
	goldenAccountingT3 = map[bool]goldenAccounting{
		true: {
			totalOps: 6.499064e+06, criticalOps: 2.260302e+06,
			kindRegions:  [4]int64{2, 3, 0, 2},
			kindCritical: [4]float64{2.221344e+06, 22658, 0, 16300},
			patterns:     15012, scalings: 171, tipTip: 348, tipInner: 765, inner: 351,
		},
		false: {
			totalOps: 6.642824e+06, criticalOps: 2.308222e+06,
			kindRegions:  [4]int64{2, 3, 0, 2},
			kindCritical: [4]float64{2.268976e+06, 22946, 0, 16300},
			patterns:     15012, scalings: 171, tipTip: 348, tipInner: 765, inner: 351,
		},
	}
)

// TestGoldenAccounting runs the table under both realisations of the fused
// newview planes: results and accounting are the same constants for each.
func TestGoldenAccounting(t *testing.T) { forEachPlanes(t, goldenAccountingTable) }

func goldenAccountingTable(t *testing.T) {
	d, models := goldenFixture(t)
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		for _, specialize := range []bool{true, false} {
			for _, ex := range []string{"sequential", "sim3", "pool3"} {
				label := fmt.Sprintf("%v specialize=%v %s", backend, specialize, ex)
				var exec *parallel.Pool
				var err error
				wantRes, wantAcc := goldenResultsT3, goldenAccountingT3[specialize]
				switch ex {
				case "sequential":
					exec = parallel.NewSequential()
					wantRes, wantAcc = goldenResultsT1, goldenAccountingT1[specialize]
				case "sim3":
					exec, err = parallel.NewSim(3)
				default:
					exec, err = parallel.NewPool(3)
				}
				if err != nil {
					t.Fatal(err)
				}
				res, acc := runGolden(t, d, models, backend, exec, specialize)
				exec.Close()
				if res != wantRes {
					t.Errorf("%s: results\n got %#x\nwant %#x", label, res, wantRes)
				}
				if acc != wantAcc {
					t.Errorf("%s: accounting\n got %+v\nwant %+v", label, acc, wantAcc)
				}
			}
		}
	}
}
