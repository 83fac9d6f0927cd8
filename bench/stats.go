package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// window is one fixed-operation-count slice of a measured phase.
type window struct {
	dur       time.Duration
	decisions int       // admission decisions taken (admitted + refused)
	latMs     []float64 // caller-observed latency of each decision
	admitted  int
	rankSum   int
}

// quietDecile is the share of windows treated as undisturbed: on a
// shared 2-vCPU host whole-run means follow the neighbours, while the
// best tenth of ≥100 short windows repeats to about 5%.
const quietDecile = 0.10

// estimate is the quiet-window reading of a measured phase.
type estimate struct {
	windows          int
	samplesPerWindow float64
	// Quiet-window values: the 10th percentile across windows of the
	// per-window latency quantiles, and decisions over the 10th
	// percentile window duration (taken per window as a rate, so windows
	// of unequal decision counts compare).
	perSec, p50Ms, p95Ms float64
	// Medians across windows, un-gated, and their distance from the
	// quiet reading: a disturbed run shows as a large spread.
	perSecMedian, p50MsMedian, p95MsMedian float64
	quietSpread                            float64
}

// quietEstimate reduces windows to the quiet-window estimators.
func quietEstimate(ws []window) estimate {
	var rate, p50, p95 []float64
	samples := 0
	for _, w := range ws {
		if w.decisions == 0 || w.dur <= 0 || len(w.latMs) == 0 {
			continue
		}
		rate = append(rate, float64(w.decisions)/w.dur.Seconds())
		s := append([]float64(nil), w.latMs...)
		sort.Float64s(s)
		p50 = append(p50, quantileSorted(s, 0.50))
		p95 = append(p95, quantileSorted(s, 0.95))
		samples += len(s)
	}
	e := estimate{windows: len(rate)}
	if e.windows == 0 {
		return e
	}
	e.samplesPerWindow = float64(samples) / float64(e.windows)
	e.perSec = quantile(rate, 1-quietDecile)
	e.p50Ms = quantile(p50, quietDecile)
	e.p95Ms = quantile(p95, quietDecile)
	e.perSecMedian = median(rate)
	e.p50MsMedian = median(p50)
	e.p95MsMedian = median(p95)
	e.quietSpread = 1 - e.perSecMedian/e.perSec
	return e
}

// outcomes sums admission outcomes over the first n windows, the fixed
// prefix that makes success and QoS repeat exactly however many windows
// the time budget allowed.
func outcomes(ws []window, n int) (decisions, admitted, rankSum int) {
	if n > len(ws) {
		n = len(ws)
	}
	for _, w := range ws[:n] {
		decisions += w.decisions
		admitted += w.admitted
		rankSum += w.rankSum
	}
	return
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
