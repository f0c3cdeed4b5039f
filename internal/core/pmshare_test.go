package core

import (
	"fmt"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/steal"
	"phylo/internal/tree"
)

// A P(z) block is a model state's (chunkexec.go): partitions whose models
// opened the session at one epoch share the blocks each worker builds, until
// either model moves. Sharing changes how many blocks are computed, never a
// bit of a result.

// pmCounter sums the transition-matrix counters of every region.
type pmCounter struct{ computed, reused float64 }

func (o *pmCounter) ObserveRegion(_ parallel.Region, _ time.Time, _ float64, ctxs []parallel.WorkerCtx) {
	for i := range ctxs {
		o.computed += ctxs[i].PComputed
		o.reused += ctxs[i].PReused
	}
}

// TestSharedStateMemo opens, on a protein / DNA / DNA / protein fixture, a
// session on DefaultsFor's models (the protein partitions 0 and 3 share an
// epoch) beside one whose protein models come from two SYN20 calls, so
// nothing can be shared there, and drives both through the same phases:
// a fresh evaluate, SetAlpha on one protein partition and a full traversal,
// and a full traversal with nothing changed. Each phase the shared session
// computes S·k fewer blocks (phase 1) or S·k more (phase 2, when the first
// protein partition moved: the second's own table is still empty) than the
// separate one, where k is a (worker, partition)'s block count of a full
// traversal and S the number of workers holding shares of both protein
// partitions; in phase 3 both compute nothing. Every per-partition lnL, d1
// and d2 is the separate session's, bit for bit.
func TestSharedStateMemo(t *testing.T) {
	d, defaults := sharedStateFixture(t)
	// Every branch gets a length of its own slot, so a table holds a whole
	// traversal and the counts below are sharing's alone.
	zs := distinctSlotLengths(t, 2*d.NumTaxa()-3)

	for _, tc := range []struct {
		name    string
		threads int
		sched   schedule.Strategy
		both    int // S: workers holding shares of partitions 0 and 3
	}{
		{"T=1", 1, schedule.Cyclic, 1},
		{"T=2 cyclic", 2, schedule.Cyclic, 2},
		{"T=2 block", 2, schedule.Block, 0}, // worker 0 has partitions 0-1, worker 1 partitions 2-3
	} {
		for _, moved := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s SetAlpha(%d)", tc.name, moved), func(t *testing.T) {
				shared := []*model.Model{defaults[0].Clone(), defaults[1].Clone(), defaults[2].Clone(), defaults[3].Clone()}
				separate := []*model.Model{nil, defaults[1].Clone(), defaults[2].Clone(), nil}
				for _, ip := range []int{0, 3} {
					m, err := model.SYN20(4, 1)
					if err != nil {
						t.Fatal(err)
					}
					separate[ip] = m
				}
				sh, counts := sharedStateSession(t, d, shared, zs, tc.threads, tc.sched)
				sep, sepCounts := sharedStateSession(t, d, separate, zs, tc.threads, tc.sched)
				layout := sh.ShareLayout()
				both, pairs := 0, 0
				for w := 0; w < tc.threads; w++ {
					has := map[int]bool{}
					for _, s := range layout.Shares(w) { // the non-empty ones
						has[s.Span] = true
					}
					pairs += len(has)
					if has[0] && has[3] {
						both++
					}
				}
				if both != tc.both {
					t.Fatalf("%d workers hold shares of both protein partitions, want %d", both, tc.both)
				}

				k := -1.0
				for phase := 1; phase <= 3; phase++ {
					if phase == 2 {
						for _, m := range []*model.Model{shared[moved], separate[moved]} {
							if err := m.SetAlpha(0.6); err != nil {
								t.Fatal(err)
							}
						}
					}
					*counts, *sepCounts = pmCounter{}, pmCounter{}
					got, want := sharedStateScores(sh), sharedStateScores(sep)
					for i := range want {
						sameBits(t, fmt.Sprintf("phase %d scores", phase), got[i], want[i])
					}
					if phase == 1 {
						if sepCounts.reused != 0 || int(sepCounts.computed)%pairs != 0 {
							t.Fatalf("separate session: %v computed, %v reused; want no reuse and a count a (worker, partition) pair", sepCounts.computed, sepCounts.reused)
						}
						k = sepCounts.computed / float64(pairs)
					}
					var delta float64 // computed in the shared session minus the separate one
					switch {
					case phase == 1:
						delta = -float64(tc.both) * k
					case phase == 2 && moved == 0:
						delta = float64(tc.both) * k
					}
					if counts.computed != sepCounts.computed+delta || counts.reused != sepCounts.reused-delta {
						t.Errorf("phase %d: %v computed, %v reused; the separate session %v and %v, want %+v computed",
							phase, counts.computed, counts.reused, sepCounts.computed, sepCounts.reused, delta)
					}
					if phase == 3 && counts.computed+sepCounts.computed != 0 {
						t.Errorf("phase 3: %v and %v blocks computed with nothing changed", counts.computed, sepCounts.computed)
					}
				}
			})
		}
	}
}

// sharedStateFixture is 10 taxa over protein, DNA, DNA and protein partitions
// (40, 120, 120 and 40 sites) with DefaultsFor's models: the protein
// partitions 0 and 3 share an epoch, the DNA ones have their own.
func sharedStateFixture(t *testing.T) (*alignment.CompressedData, []*model.Model) {
	t.Helper()
	lens := []int{40, 120, 120, 40}
	types := []alignment.DataType{alignment.AA, alignment.DNA, alignment.DNA, alignment.AA}
	const taxa = 10
	rows := make([][]byte, taxa)
	for i, n := range lens {
		a := randomAlignment(t, taxa, n, types[i], int64(8100+i))
		for k := range rows {
			rows[k] = append(rows[k], a.Seqs[k]...)
		}
	}
	al, err := alignment.New(taxaNames(taxa), rows)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(al, contiguousParts(lens, types), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := model.DefaultsFor(d.Parts, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Epoch() != ms[3].Epoch() || ms[1].Epoch() == ms[2].Epoch() {
		t.Fatal("DefaultsFor: want the protein partitions at one epoch, the DNA ones at two")
	}
	return d, ms
}

// distinctSlotLengths returns n branch lengths whose blocks take n different
// memo slots, found by binding candidates on a session of their own.
func distinctSlotLengths(t *testing.T, n int) []float64 {
	t.Helper()
	r := newMemoRig(t)
	c := r.eng.workers[0].span
	c.bind(&region{kind: parallel.RegionEvaluate, p: r.eng.Tree.Tips[0]}, parallel.RegionEvaluate, 0, 0, 0, &r.ctx)
	var zs []float64
	taken := map[int]bool{}
	for k := 1; len(zs) < n && k <= 100*n; k++ {
		z := 0.013 * float64(k)
		if slot := c.transition(&c.b, r.eng.Models[0], 0, z, -1, &r.ctx); !taken[slot] {
			taken[slot], zs = true, append(zs, z)
		}
	}
	if len(zs) < n {
		t.Fatalf("found %d branch lengths of distinct memo slots, want %d", len(zs), n)
	}
	return zs
}

// sharedStateSession opens a session over d on a tree of one seed whose
// branches take the lengths zs in every slot, on a virtual executor of the
// given width under the strategy, with a counter of its transition-matrix
// blocks.
func sharedStateSession(t *testing.T, d *alignment.CompressedData, models []*model.Model, zs []float64, threads int, strategy schedule.Strategy) (*Engine, *pmCounter) {
	t.Helper()
	tr, err := tree.Random(taxaNames(d.NumTaxa()), len(models), tree.RandomOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for b, br := range tr.Branches() {
		for ip := range models {
			tree.SetBranchLength(br, ip, zs[b])
		}
	}
	exec, err := parallel.NewSim(threads)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	counts := &pmCounter{}
	exec.SetObserver(counts)
	sh, err := NewSharedWith(d, models[0].NumCats, threads, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sh.ScheduleFor(strategy)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSession(sh, tr, models, exec, Options{Specialize: true, Layout: steal.NewLayout(s, 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Release)
	return e, counts
}

// sharedStateScores runs a full traversal and evaluate at the canonical root
// and the derivative region of the branch above it, and returns the
// per-partition lnL, d1 and d2.
func sharedStateScores(e *Engine) [3][]float64 {
	n := e.NumPartitions()
	per, d1, d2 := make([]float64, n), make([]float64, n), make([]float64, n)
	e.Tree.ClearX()
	e.LogLikelihood(per)
	p := e.Tree.Tips[0].Back
	z := make([]float64, n)
	for ip := range z {
		z[ip] = p.Z[e.BranchSlot(ip)]
	}
	e.BranchDerivatives(p, z, nil, nil, d1, d2, nil)
	return [3][]float64{per, d1, d2}
}
