package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"
)

// The yardstick is how the benchmark tells the program's speed from the
// host's. The reference host is a few cores of a shared machine: for minutes
// at a time its neighbours slow everything the run does by 1.2x to 1.9x (no
// steal time, CPU time equal to wall time: the core itself, its caches and the
// memory behind them are shared), so wall times of one binary differ more
// between two sets of runs than any regression bound allows, whatever statistic
// is taken inside a run (README.md, 'Steadiness'). The yardstick is fixed work
// that belongs to the benchmark, not to the program, in two pieces, because the
// host does not slow all code alike (tight floating-point loops by up to 1.9x,
// parsing and hashing by 1.4x in the same spell):
//
//   - the evaluation: a likelihood evaluation written out here (Felsenstein
//     pruning on a caterpillar tree, 4 states x 4 rates, every inner vector
//     freshly allocated, as a session open does), sized like the workloads and
//     slowed the way their solves and evaluates are (log-log slope 0.9 to 1.0
//     of their wall time against it across host states);
//   - the set-up: parsing an alignment text, compressing its columns through a
//     map and allocating the vectors of a session, slowed the way bytes ->
//     ready is (slope 1.05; against the evaluation a set-up's slope is 0.65,
//     which over-corrects it by 18% in a 1.75x spell).
//
// Both are read beside everything the benchmark times, and a gated timing is
// reported in yardstick-normalised seconds: wall time x the piece's reference
// time / the piece's time next to it. A change to the program does not run in
// the yardstick, so a normalised time moves when the program's own cost does:
// more iterations, slower kernels and more allocation all still show. What no
// longer shows is the host. One thing the two share is the collector: the
// yardstick allocates, and a collection it triggers marks what the program
// keeps live. With the few MB of float vectors a run keeps, that is nothing
// (80 MB more of them: +2% on a reading); 64 MB of live pointers would slow a
// reading by 1.9x, which is why the traced pass, whose tracer keeps such a
// buffer, is not normalised, and why yardstick_s and the wall times as
// measured stay in the report (dist and raw of the *_wall metrics): a change
// that moves yardstick_s on a quiet host has changed the heap, not the host.
const (
	yardTaxa     = 8
	yardPatterns = 1000
	yardRates    = 4
	yardStates   = 4
	yardEvals    = 40 // evaluations in one reading, about 16 ms

	yardSetupSites = 4000
	yardSetups     = 6 // set-ups in one reading, about 2.8 ms

	// yardReference and yardSetupReference are one reading of each piece on
	// the quiet reference host, in seconds. They only fix the unit: normalised
	// seconds are seconds of that host.
	yardReference      = 0.016
	yardSetupReference = 0.0028
)

const yardCell = yardRates * yardStates

// The fixed inputs: tip states and one transition matrix per rate for the
// evaluation, an alignment text for the set-up. Package-level, because the
// compiler keeps their addresses out of the evaluation's inner loop that way (a
// fifth faster than through a pointer).
var (
	yardTips [yardTaxa][]uint8
	yardP    [yardRates][yardStates * yardStates]float64
	yardText []byte
)

// yardstick is the two pieces of reference work, ready to be read.
type yardstick struct {
	wantEval  float64 // the evaluation's result, which every reading must repeat
	wantSetup int     // the set-up's
}

func newYardstick() *yardstick {
	s := uint64(12345)
	next := func() uint8 {
		s = s*6364136223846793005 + 1442695040888963407
		return uint8(s >> 62)
	}
	for t := range yardTips {
		yardTips[t] = make([]uint8, yardPatterns)
		for i := range yardTips[t] {
			yardTips[t][i] = next()
		}
	}
	for r := range yardP {
		off := 0.05 * float64(r+1)
		for i := 0; i < yardStates; i++ {
			for j := 0; j < yardStates; j++ {
				yardP[r][i*yardStates+j] = off
				if i == j {
					yardP[r][i*yardStates+j] = 1 - (yardStates-1)*off
				}
			}
		}
	}
	// The text: a header line, then one line per taxon. Two columns in three
	// repeat the one before, so compression finds a third of them distinct.
	cols := make([][yardTaxa]byte, yardSetupSites)
	for i := range cols {
		if i%3 != 0 {
			cols[i] = cols[i-1]
			continue
		}
		for t := range cols[i] {
			cols[i][t] = "ACGT"[next()]
		}
	}
	var text bytes.Buffer
	fmt.Fprintf(&text, "%d %d\n", yardTaxa, yardSetupSites)
	for t := 0; t < yardTaxa; t++ {
		fmt.Fprintf(&text, "taxon%03d  ", t)
		for i := range cols {
			text.WriteByte(cols[i][t])
		}
		text.WriteByte('\n')
	}
	yardText = text.Bytes()
	return &yardstick{wantEval: yardEvaluate(), wantSetup: yardSetup()}
}

// yardEvaluate scores the caterpillar tree ((((t0,t1),t2),t3)...).
func yardEvaluate() float64 {
	var prev []float64
	for k := 0; k < yardTaxa-2; k++ {
		clv := make([]float64, yardPatterns*yardCell)
		tip := yardTips[k+2]
		for p := 0; p < yardPatterns; p++ {
			out := clv[p*yardCell : p*yardCell+yardCell]
			for r := 0; r < yardRates; r++ {
				P := &yardP[r]
				for s := 0; s < yardStates; s++ {
					var below float64
					if prev == nil {
						below = P[s*4+int(yardTips[0][p])] * P[s*4+int(yardTips[1][p])]
					} else {
						in := prev[p*yardCell+r*4 : p*yardCell+r*4+4]
						below = P[s*4]*in[0] + P[s*4+1]*in[1] + P[s*4+2]*in[2] + P[s*4+3]*in[3]
					}
					out[r*4+s] = below * P[s*4+int(tip[p])]
				}
			}
		}
		prev = clv
	}
	lnl := 0.0
	for p := 0; p < yardPatterns; p++ {
		site := 0.0
		for i := 0; i < yardCell; i++ {
			site += prev[p*yardCell+i]
		}
		lnl += math.Log(site)
	}
	return lnl
}

// yardSetup goes from bytes to ready the way a set-up does: split the text into
// rows, encode the states, compress the columns into patterns through a map,
// and allocate a session's inner vectors for them. It returns the floats
// allocated.
func yardSetup() int {
	var rows [][]byte
	for _, line := range bytes.Split(yardText, []byte("\n"))[1:] {
		f := bytes.Fields(line)
		if len(f) != 2 {
			continue
		}
		row := make([]byte, len(f[1]))
		for i, c := range f[1] {
			row[i] = 1 << (strings.IndexByte("ACGT", c) & 3)
		}
		rows = append(rows, row)
	}
	seen := map[[yardTaxa]byte]int{}
	var weights []int
	var col [yardTaxa]byte
	for i := 0; i < yardSetupSites; i++ {
		for t, row := range rows {
			col[t] = row[i]
		}
		if p, ok := seen[col]; ok {
			weights[p]++
			continue
		}
		seen[col] = len(weights)
		weights = append(weights, 1)
	}
	floats := 0
	for k := 0; k < yardTaxa-2; k++ {
		clv := make([]float64, len(weights)*yardCell)
		clv[len(clv)-1] = 1
		floats += len(clv)
	}
	return floats
}

// reading is the time of each piece at one moment, in seconds: yardEvals
// evaluations and yardSetups set-ups.
type reading struct{ eval, setup float64 }

// read times one reading.
func (y *yardstick) read() reading {
	start := time.Now()
	for i := 0; i < yardEvals; i++ {
		if got := yardEvaluate(); got != y.wantEval {
			panic(fmt.Sprintf("yardstick evaluated to %v, want %v", got, y.wantEval))
		}
	}
	mid := time.Now()
	for i := 0; i < yardSetups; i++ {
		if got := yardSetup(); got != y.wantSetup {
			panic(fmt.Sprintf("yardstick set up %d floats, want %d", got, y.wantSetup))
		}
	}
	return reading{mid.Sub(start).Seconds(), time.Since(mid).Seconds()}
}

// scale is the two factors that turn wall seconds measured between two
// readings into normalised seconds: eval for solves, evaluates and windows,
// setup for set-ups.
type scale struct{ eval, setup float64 }

// gauge times pieces of work between yardstick readings. Each piece is
// bracketed by the reading before it and the one after it; the reading after
// one piece is the reading before the next.
type gauge struct {
	y        *yardstick
	last     reading   // the latest reading, zero before the first
	readings []reading // every reading, for the report
}

func newGauge() *gauge { return &gauge{y: newYardstick()} }

func (g *gauge) read() reading {
	r := g.y.read()
	g.readings = append(g.readings, r)
	return r
}

// scale runs fn, which times what it wants itself, and returns the factors
// for the wall seconds measured inside fn.
func (g *gauge) scale(fn func()) scale {
	before := g.last
	if before == (reading{}) {
		before = g.read()
	}
	fn()
	g.last = g.read()
	return scale{
		eval:  yardReference / ((before.eval + g.last.eval) / 2),
		setup: yardSetupReference / ((before.setup + g.last.setup) / 2),
	}
}

// series is the samples of one gated timing: as measured, and normalised by
// the yardstick readings around each.
type series struct {
	wall, norm []float64
	rate       bool // a rate (1/s) is divided by the factor, a time multiplied
}

func (s *series) add(v, factor float64) {
	s.wall = append(s.wall, v)
	if s.rate {
		factor = 1 / factor
	}
	s.norm = append(s.norm, v*factor)
}

func (s *series) n() int { return len(s.wall) }

// timings are the five gated timings of an untraced run.
type timings struct {
	setup, solve, p50, p90, rps series
}

func newTimings() *timings { return &timings{rps: series{rate: true}} }

// addWindow adds one window's p50, p90 and throughput.
func (t *timings) addWindow(latMS []float64, perSecond float64, sc scale) {
	t.p50.add(median(latMS), sc.eval)
	t.p90.add(percentile(latMS, 90), sc.eval)
	t.rps.add(perSecond, sc.eval)
}

// report sets each timing to the median of its normalised samples and, under
// the name with _wall in it, to the median of the samples as measured, and
// records the yardstick's readings: yardstick_s over yardReference (and
// yardstick_setup_s over yardSetupReference) is how much slower than the quiet
// reference host this run's host was.
func (t *timings) report(rep *report, g *gauge) {
	var evals, setups []float64
	for _, r := range g.readings {
		evals, setups = append(evals, r.eval), append(setups, r.setup)
	}
	rep.setDist("yardstick_s", "s", evals)
	rep.setDist("yardstick_setup_s", "s", setups)
	rep.Raw = map[string][]float64{"yardstick_s": evals, "yardstick_setup_s": setups}
	for _, m := range []struct {
		name, wallName, unit string
		s                    *series
	}{
		{"setup_s", "setup_wall_s", "s", &t.setup},
		{"solve_s", "solve_wall_s", "s", &t.solve},
		{"eval_p50_ms", "eval_p50_wall_ms", "ms", &t.p50},
		{"eval_p90_ms", "eval_p90_wall_ms", "ms", &t.p90},
		{"eval_rps", "eval_wall_rps", "1/s", &t.rps},
	} {
		rep.setDist(m.name, m.unit, m.s.norm)
		rep.setDist(m.wallName, m.unit, m.s.wall)
		rep.Raw[m.name], rep.Raw[m.wallName] = m.s.norm, m.s.wall
	}
}
