package main

import (
	"math"
	"sort"
	"time"

	"autoblox"
)

// minTail is the number of samples a reported tail percentile must
// leave beyond it; a tail resting on fewer samples is one outlier away
// from a different number.
const minTail = 10

// tailCandidates are the percentiles a timing may be reported at,
// highest first.
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.5}

// rank returns the 1-based nearest-rank position of quantile q among n
// sorted samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailQuantile picks the highest candidate percentile that leaves at
// least minTail of n samples beyond it. ok is false when even the
// median does not (n < 2·minTail).
func tailQuantile(n int) (q float64, ok bool) {
	for _, c := range tailCandidates {
		if n-rank(c, n) >= minTail {
			return c, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// median is the midpoint median (the mean of the two middle samples for
// an even count), used for the per-run figures.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// unboundedLifetimeNS orders "no wear observed" (a projected lifetime
// of 0) above every finite projection, as the tuner's lifetime axis does.
const unboundedLifetimeNS = float64(int64(1) << 62)

// objectives maps a front point onto the maximize-all vector of the
// perf,power,lifetime axes: grade, negated watts, log-compressed
// lifetime.
func objectives(p autoblox.FrontPoint) [3]float64 {
	life := float64(p.LifetimeNS)
	if p.LifetimeNS <= 0 {
		life = unboundedLifetimeNS
	}
	return [3]float64{p.Grade, -p.PowerWatts, math.Log1p(life)}
}

// dominates reports whether a is at least as good as b on every axis
// and strictly better on one.
func dominates(a, b [3]float64) bool {
	better := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			better = true
		}
	}
	return better
}

// dominatedPair returns the first pair (i, j) of front points where i
// dominates j; ok is false when the points are mutually non-dominated.
func dominatedPair(front []autoblox.FrontPoint) (i, j int, ok bool) {
	vecs := make([][3]float64, len(front))
	for k, p := range front {
		vecs[k] = objectives(p)
	}
	for i := range vecs {
		for j := range vecs {
			if i != j && dominates(vecs[i], vecs[j]) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}
