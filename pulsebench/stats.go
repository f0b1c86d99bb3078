package main

import (
	"math"
	"sort"
)

// samples keeps every observation, so percentiles are exact order
// statistics rather than bucket edges.
type samples []float64

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100), or NaN when
// there are no samples.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	k := int(math.Ceil(p/100*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return c[k]
}

// Window counts for the median-of-runs percentiles. Invoke and lifecycle
// series have a thousand samples or more, so each of 20 runs keeps ten or
// more beyond its p90 (invoke) or hundreds around its p50 (lifecycle), and
// the median over 20 ignores the runs that a collection cycle or a burst
// of load on the host slowed. Step series have 100-160 samples and use 5,
// so that each run keeps ten or more beyond its p90 rather than one or two.
const (
	latencyWindows = 20
	shortWindows   = 5
)

// windowPct splits s, in the order the samples were taken, into k runs of
// equal size (the remainder joins the last run) and returns the median of
// each run's p-th percentile. A burst of interference from outside the
// benchmark then moves one run's figure, not the result.
func (s samples) windowPct(k int, p float64) float64 {
	size := max(1, len(s)/k)
	n := len(s) / size
	if n < 2 {
		return s.pct(p)
	}
	var per samples
	for i := 0; i < n; i++ {
		end := (i + 1) * size
		if i == n-1 {
			end = len(s)
		}
		per = append(per, s[i*size:end].pct(p))
	}
	return per.median()
}

// median is the middle value, or the mean of the two middle values.
func (s samples) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// metric is one reported number with its unit and how many observations
// it summarizes.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics collects a run's metrics in the order they were set.
type metrics struct {
	order []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name string, v float64, unit string, n int) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit, N: n}
}

// pct sets name to the p-th percentile of s scaled by scale.
func (ms *metrics) pct(name string, s samples, p, scale float64, unit string) {
	ms.set(name, s.pct(p)*scale, unit, len(s))
}

// win sets name to the p-th percentile of s scaled by scale, as the median
// over k runs of the samples in the order they were taken.
func (ms *metrics) win(name string, s samples, k int, p, scale float64, unit string) {
	ms.set(name, s.windowPct(k, p)*scale, unit, len(s))
}
