package parallel

import (
	"math"
	"testing"
	"time"
	"unsafe"
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

// regionLog is a RegionObserver that counts callbacks and checks what every
// realisation promises about the wall time it reports.
type regionLog struct {
	t       *testing.T
	threads int
	calls   int
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
}

// TestExecutorTimingParity runs one deterministic closure sequence on every
// realisation of the executor — goroutines, a session of them, a session
// whose goroutines were closed under it, virtual workers, the caller alone —
// and requires the same op statistics and observer callbacks from each (they
// are all exact functions of T), ctx.Concurrent only on live goroutines, and
// sane measured times: non-negative, cumulative totals monotone over regions,
// critical time between the busiest worker's total and the grand total.
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
			log := &regionLog{t: t, threads: T}
			// The observer belongs to what the views share: a session opened
			// before it was installed on the constructor's view reports to it.
			tc.via.SetObserver(log)
			defer tc.via.SetObserver(nil)
			burn := make([]float64, T*16)       // padded per-worker sinks
			concurrent := make([]bool, T*128)   // padded per-worker flags
			var prev []float64                  // cumulative WorkerTime after the previous region
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

				st := ex.Stats()
				for w, cum := range st.WorkerTime {
					if cum < 0 {
						t.Fatalf("worker %d cumulative time %v < 0", w, cum)
					}
					if w < len(prev) && cum < prev[w] {
						t.Fatalf("worker %d cumulative time decreased: %v -> %v", w, prev[w], cum)
					}
				}
				prev = append(prev[:0], st.WorkerTime...)
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
			if len(st.WorkerTime) != T {
				t.Fatalf("WorkerTime has %d entries, want %d", len(st.WorkerTime), T)
			}
			if st.TotalTime <= 0 || st.CriticalTime <= 0 {
				t.Errorf("time totals not positive: total=%v critical=%v", st.TotalTime, st.CriticalTime)
			}
			// Critical time sums per-region maxima, so it must be at least the
			// largest cumulative per-worker time and at most the total.
			maxW := 0.0
			for _, v := range st.WorkerTime {
				if v > maxW {
					maxW = v
				}
			}
			if st.CriticalTime < maxW-1e-12 || st.CriticalTime > st.TotalTime+1e-12 {
				t.Errorf("critical time %v outside [maxWorker %v, total %v]", st.CriticalTime, maxW, st.TotalTime)
			}
			if st.TimeImbalance() < 1-1e-9 {
				t.Errorf("time imbalance %v below 1", st.TimeImbalance())
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
