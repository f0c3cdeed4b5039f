package parallel

import (
	"math"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"phylo/internal/obs"
)

// TestWorkerCtxPadding pins the anti-false-sharing layout: WorkerCtx must
// occupy a whole number of cache-line *pairs* (128 bytes), so that adjacent
// entries of a []WorkerCtx — written concurrently by different workers —
// never share a line even under 8-byte slice alignment and the adjacent-line
// prefetcher.
func TestWorkerCtxPadding(t *testing.T) {
	if size := unsafe.Sizeof(WorkerCtx{}); size != 128 {
		t.Errorf("WorkerCtx size = %d bytes, want 128 (two cache lines)", size)
	}
}

// spinOps burns a deterministic amount of CPU so measured region times are
// reliably positive for busy workers.
func spinOps(n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += float64(i%7) * 1.000001
	}
	return s
}

// regionLog is a RegionObserver that counts callbacks, checks what every
// realisation promises about the wall time it reports, and hands the region
// on to the metrics collector whose registry holds the measured seconds.
type regionLog struct {
	t       *testing.T
	threads int
	calls   int
	col     *MetricsCollector
}

func (l *regionLog) ObserveRegion(kind Region, start time.Time, wall float64, ctxs []WorkerCtx) {
	l.calls++
	if len(ctxs) != l.threads {
		l.t.Errorf("observer saw %d workers, want %d", len(ctxs), l.threads)
	}
	turns := 0.0
	for w := range ctxs {
		if ctxs[w].Seconds < 0 || ctxs[w].Seconds > wall+1e-9 {
			l.t.Errorf("worker %d seconds %v outside [0, wall %v]", w, ctxs[w].Seconds, wall)
		}
		turns += ctxs[w].Seconds
	}
	if !ctxs[0].Concurrent && math.Abs(turns-wall) > 1e-9 {
		l.t.Errorf("virtual turns add up to %v, region wall is %v", turns, wall)
	}
	if len(ctxs) == 1 && !ctxs[0].Concurrent && ctxs[0].Seconds != wall {
		l.t.Errorf("caller-only worker seconds %v != region wall %v", ctxs[0].Seconds, wall)
	}
	l.col.ObserveRegion(kind, start, wall, ctxs)
}

// TestExecutorTimingParity runs one deterministic closure sequence on every
// realisation of the executor — goroutines, a session of them, a session
// whose goroutines were closed under it, virtual workers, the caller alone —
// and requires the same op statistics and observer callbacks from each (they
// are all exact functions of T), ctx.Concurrent only on live goroutines, and
// sane measured times in the registry: per-worker busy seconds non-negative
// and monotone over regions, their max/avg at least 1.
func TestExecutorTimingParity(t *testing.T) {
	const regions = 7 // one more than there are kinds, so a kind repeats
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	doomed, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	orphan := doomed.Session()
	doomed.Close()
	sim, err := NewSim(4)
	if err != nil {
		t.Fatal(err)
	}
	solo := NewSequential()
	for _, tc := range []struct {
		name string
		exec *Pool
		via  *Pool // the view the observer is installed through
		live bool
	}{
		{"goroutines", pool, pool, true},
		{"session", pool.Session(), pool, true},
		{"session after its pool closed", orphan, doomed, false},
		{"virtual", sim, sim, false},
		{"session of virtual", sim.Session(), sim, false},
		{"caller only", solo, solo, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := tc.exec
			T := ex.Threads()
			reg := obs.NewRegistry()
			log := &regionLog{t: t, threads: T, col: NewMetricsCollector(reg, "pool", "fused4", 4, T, nil)}
			// The observer belongs to what the views share: a session opened
			// before it was installed on the constructor's view reports to it.
			tc.via.SetObserver(log)
			defer tc.via.SetObserver(nil)
			busy := make([]*obs.Counter, T) // the collector's per-worker series
			for w := range busy {
				busy[w] = reg.Counter("plk_worker_busy_seconds_total", "", obs.Label{Key: "worker", Value: strconv.Itoa(w)})
			}
			burn := make([]float64, T*16)       // padded per-worker sinks
			concurrent := make([]bool, T*128)   // padded per-worker flags
			prev := make([]float64, T)          // busy seconds after the previous region
			var want Stats                      // exact expectation, built alongside
			want.WorkerOps = make([]float64, T) // (all op counts are small integers)
			for r := 0; r < regions; r++ {
				kind := Region(r % int(numRegionKinds))
				ex.Run(kind, func(w int, ctx *WorkerCtx) {
					burn[w*16] += spinOps(2000 * (w + 1))
					ctx.Ops += float64((r + 1) * 10 * (w + 1))
					concurrent[w*128] = ctx.Concurrent
				})
				for w := 0; w < T; w++ {
					ops := float64((r + 1) * 10 * (w + 1))
					want.WorkerOps[w] += ops
					want.TotalOps += ops
					if concurrent[w*128] != tc.live {
						t.Fatalf("region %d worker %d: ctx.Concurrent = %v, want %v", r, w, concurrent[w*128], tc.live)
					}
				}
				crit := float64((r + 1) * 10 * T)
				want.Regions++
				want.CriticalOps += crit
				want.KindRegions[kind]++
				want.KindCritical[kind] += crit

				for w, c := range busy {
					cum := c.Value()
					if cum < 0 {
						t.Fatalf("worker %d busy seconds %v < 0", w, cum)
					}
					if cum < prev[w] {
						t.Fatalf("worker %d busy seconds decreased: %v -> %v", w, prev[w], cum)
					}
					prev[w] = cum
				}
			}
			st := ex.Stats()
			if log.calls != regions {
				t.Errorf("observer callbacks = %d, want %d", log.calls, regions)
			}
			if st.Regions != want.Regions || st.TotalOps != want.TotalOps || st.CriticalOps != want.CriticalOps {
				t.Errorf("regions/total/critical = %d/%v/%v, want %d/%v/%v",
					st.Regions, st.TotalOps, st.CriticalOps, want.Regions, want.TotalOps, want.CriticalOps)
			}
			if st.KindRegions != want.KindRegions || st.KindCritical != want.KindCritical {
				t.Errorf("per-kind accounting = %v / %v, want %v / %v",
					st.KindRegions, st.KindCritical, want.KindRegions, want.KindCritical)
			}
			for w := 0; w < T; w++ {
				if st.WorkerOps[w] != want.WorkerOps[w] {
					t.Errorf("worker %d ops = %v, want %v", w, st.WorkerOps[w], want.WorkerOps[w])
				}
			}
			// Time imbalance is max/avg of the busy seconds: every worker spun,
			// so the sum is positive and the ratio at least 1.
			maxB, sumB := 0.0, 0.0
			for _, v := range prev {
				sumB += v
				maxB = math.Max(maxB, v)
			}
			if sumB <= 0 {
				t.Fatalf("busy seconds %v sum to %v, want > 0", prev, sumB)
			}
			if imb := maxB / (sumB / float64(T)); imb < 1-1e-9 {
				t.Errorf("time imbalance %v below 1 (busy seconds %v)", imb, prev)
			}
		})
	}
	// Views keep their statistics to themselves: the sessions above left the
	// constructors' own views exactly the regions those ran directly.
	if got := pool.Stats().Regions; got != regions {
		t.Errorf("goroutine view regions = %d after a session ran too, want %d", got, regions)
	}
}

// TestCallerOnlyRunAllocFree pins the cheap path every one-thread analysis
// takes: a region on the caller-only realisation allocates nothing.
func TestCallerOnlyRunAllocFree(t *testing.T) {
	ex := NewSequential()
	fn := func(w int, ctx *WorkerCtx) { ctx.Ops += 1 }
	if n := testing.AllocsPerRun(200, func() { ex.Run(RegionNewview, fn) }); n != 0 {
		t.Errorf("caller-only Run allocates %v per region, want 0", n)
	}
}
