package main

import (
	"math"
	"testing"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Fatalf("summary of 1..10 = %+v", s)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	s = summarize([]float64{1, 2, 4, 8, 16})
	if s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 12 {
		t.Fatalf("summary of powers of two = %+v", s)
	}
	if got := s.spread(); math.Abs(got-10.5/4) > 1e-12 {
		t.Fatalf("spread = %v, want IQR/median = 2.625", got)
	}
	// Tiny samples stay inside their range.
	s = summarize([]float64{3, 5})
	if s.Q1 < 3 || s.Q3 > 5 || s.Median != 4 {
		t.Fatalf("summary of two samples = %+v", s)
	}
	if median([]float64{7}) != 7 || median([]float64{1, 3, 2}) != 2 {
		t.Fatal("median of one and of three samples")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(med float64) summary {
		return summary{N: 10, Min: med * 0.99, Q1: med * 0.995, Median: med, Q3: med * 1.005, Max: med * 1.01}
	}
	wide := func(med float64) summary {
		return summary{N: 10, Min: med * 0.7, Q1: med * 0.85, Median: med, Q3: med * 1.15, Max: med * 1.3}
	}
	for _, c := range []struct {
		name   string
		a, b   summary
		higher bool
		want   string
	}{
		{"same", tight(1), tight(1.02), false, verdictOK},
		{"slower past the bound", tight(1), tight(1.2), false, verdictWorse},
		{"faster", tight(1), tight(0.8), false, verdictOK},
		{"throughput down past the bound", tight(100), tight(80), true, verdictWorse},
		{"throughput up", tight(100), tight(130), true, verdictOK},
		{"spread wider than the bound, ranges overlap", wide(1), wide(1.02), false, verdictUnresolved},
		{"spread wide but every run of b beats every run of a", wide(1), tight(0.5), false, verdictOK},
		{"spread wide and median past the bound", wide(1), wide(1.5), false, verdictWorse},
		{"missing side", tight(1), summary{}, false, verdictUnresolved},
	} {
		if got := verdict(c.a, c.b, 0.10, c.higher); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
