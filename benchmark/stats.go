package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples inside a run (or of
// one metric's run values inside a set of runs).
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile interpolates the q-quantile of sorted values by the exclusive
// method of Python's statistics.quantiles, which the driver uses to judge
// this benchmark's spread, so the quartiles printed here are the driver's.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	lo = max(0, min(lo, n-2))
	frac := pos - float64(lo)
	v := sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
	// Below four samples the method extrapolates past the data; keep inside.
	return max(sorted[0], min(v, sorted[n-1]))
}

// summarize sorts a copy of values and returns its five-number summary.
func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// sum adds the values up.
func sum(values []float64) (total float64) {
	for _, v := range values {
		total += v
	}
	return total
}

// median is summarize(values).Median.
func median(values []float64) float64 { return summarize(values).Median }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(1, min(rank, len(s)))-1]
}

// percentileLadder lists the tail percentiles a latency report may quote.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n; below n = 20 not even
// the median qualifies and it returns 0.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 10000 x 0.1% rounds to 9.99999...
			best = p
		}
	}
	return best
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// Verdicts of comparing one (workload, metric) pair between two sets.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges set b against set a for a metric whose regression bound is
// a share of a's median. b is worse when its median is worse than a's by
// more than the bound. When either set's spread exceeds the bound the
// medians cannot resolve a change of that size: the pair is unresolved
// unless the ranges do not overlap in b's favour.
func verdict(a, b summary, bound float64, higherIsBetter bool) string {
	if a.N == 0 || b.N == 0 {
		return verdictUnresolved
	}
	worseBy := (b.Median - a.Median) / math.Abs(a.Median)
	allBetter := b.Max < a.Min
	if higherIsBetter {
		worseBy = -worseBy
		allBetter = b.Min > a.Max
	}
	if worseBy > bound {
		return verdictWorse
	}
	if (a.spread() > bound || b.spread() > bound) && !allBetter {
		return verdictUnresolved
	}
	return verdictOK
}
