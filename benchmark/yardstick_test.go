package main

import (
	"math"
	"testing"
)

// TestYardstickRepeats: both pieces of reference work are deterministic, and
// a reading of each takes time.
func TestYardstickRepeats(t *testing.T) {
	y := newYardstick()
	if math.IsNaN(y.wantEval) || math.IsInf(y.wantEval, 0) || y.wantEval >= 0 {
		t.Fatalf("yardstick evaluates to %v, want a finite negative log likelihood", y.wantEval)
	}
	// A third of the text's columns are drawn, the others repeat one.
	if patterns := y.wantSetup / ((yardTaxa - 2) * yardCell); patterns < yardSetupSites/4 || patterns > yardSetupSites/3+1 {
		t.Fatalf("yardstick set-up found %d patterns in %d sites", patterns, yardSetupSites)
	}
	if again := newYardstick(); *again != *y {
		t.Fatalf("two yardsticks: %+v and %+v", *y, *again)
	}
	if r := y.read(); !(r.eval > 0 && r.setup > 0) {
		t.Fatalf("a reading took %+v s", r)
	}
}

// TestGaugeBracketsWork: a factor is the piece's reference over the mean of
// the readings around the work, and the reading after one piece of work is
// the reading before the next.
func TestGaugeBracketsWork(t *testing.T) {
	g := newGauge()
	ran := false
	sc := g.scale(func() { ran = true })
	if !ran || !(sc.eval > 0 && sc.setup > 0) || g.last == (reading{}) {
		t.Fatalf("ran=%v scale=%+v last=%+v", ran, sc, g.last)
	}
	before := g.last
	sc = g.scale(func() {})
	want := scale{
		eval:  yardReference / ((before.eval + g.last.eval) / 2),
		setup: yardSetupReference / ((before.setup + g.last.setup) / 2),
	}
	if sc != want {
		t.Fatalf("scale = %+v, want %+v from readings %+v and %+v", sc, want, before, g.last)
	}
}

func TestSeriesNormalises(t *testing.T) {
	times, rates := series{}, series{rate: true}
	times.add(2, 0.5)
	rates.add(100, 0.5)
	if times.norm[0] != 1 || times.wall[0] != 2 {
		t.Errorf("a time of 2 at scale 0.5: %+v", times)
	}
	if rates.norm[0] != 200 || rates.wall[0] != 100 {
		t.Errorf("a rate of 100 at scale 0.5: %+v", rates)
	}
}

func BenchmarkYardstickRead(b *testing.B) {
	y := newYardstick()
	for i := 0; i < b.N; i++ {
		y.read()
	}
}
