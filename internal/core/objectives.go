package core

import (
	"fmt"
	"math"
	"sort"

	"autoblox/internal/autodb"
	"autoblox/internal/ssdconf"
)

// Gauge names the Pareto tuner exports (front quality per iteration).
const (
	MetricFrontSize        = "tuner_front_size"
	MetricFrontHypervolume = "tuner_front_hypervolume"
)

// meanPower averages the modeled power draw across a cluster's
// measurements — the power objective axis.
func meanPower(perfs []autodb.Perf) float64 {
	if len(perfs) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range perfs {
		sum += p.PowerWatts
	}
	return sum / float64(len(perfs))
}

// minLifetimeNS is the worst finite lifetime projection across a
// cluster's measurements — the lifetime objective axis. Traces that
// observed no erases project no wear-out and are skipped; 0 means no
// trace wore the device at all (unbounded lifetime).
func minLifetimeNS(perfs []autodb.Perf) int64 {
	min := int64(0)
	for _, p := range perfs {
		if p.ProjectedLifetimeNS <= 0 {
			continue
		}
		if min == 0 || p.ProjectedLifetimeNS < min {
			min = p.ProjectedLifetimeNS
		}
	}
	return min
}

// Multi-objective Pareto tuning. The historical tuner optimizes one
// scalar grade (Formulas 1–2); the objective refactor generalizes it to
// a vector — performance grade, mean power draw, projected device
// lifetime — searched with an NSGA-style non-dominated sort plus
// crowding-distance selection. The scalar spec short-circuits every
// code path here, so a scalar tune executes the exact historical
// sequence (same RNG draws, same grades, same checkpoints).

// ObjectiveSpec declares which axes a tune optimizes; it lives in
// ssdconf so the space signature (and therefore checkpoint resume and
// distributed-fleet handshakes) can reject mismatched objective sets.
type ObjectiveSpec = ssdconf.ObjectiveSpec

// Objectives is one configuration's objective vector in maximize-all
// form: each element is oriented so that larger is better (power is
// negated, lifetime is log-compressed).
type Objectives []float64

// unboundedLifetimeNS stands in for "no erases observed": the endurance
// model projects no wear-out, which must dominate every finite
// projection. It matches the endurance model's internal cap.
const unboundedLifetimeNS = float64(int64(1) << 62)

// effectiveLifetimeNS maps the raw projection (0 = unbounded) onto a
// totally ordered scale.
func effectiveLifetimeNS(ns int64) float64 {
	if ns <= 0 {
		return unboundedLifetimeNS
	}
	return float64(ns)
}

// objectiveVec builds a maximize-all vector from raw axis values. The
// lifetime axis is log-compressed: projections span many decades
// (hours to unbounded), and crowding/hypervolume arithmetic on the raw
// nanosecond scale would collapse every finite point onto one spot.
func objectiveVec(spec ssdconf.ObjectiveSpec, perf, power float64, lifetimeNS int64) Objectives {
	out := make(Objectives, len(spec.Axes))
	for i, ax := range spec.Axes {
		switch ax {
		case ssdconf.AxisPower:
			out[i] = -power
		case ssdconf.AxisLifetime:
			out[i] = math.Log1p(effectiveLifetimeNS(lifetimeNS))
		default: // perf
			out[i] = perf
		}
	}
	return out
}

// objectivesOf builds an entry's objective vector for the spec.
func objectivesOf(spec ssdconf.ObjectiveSpec, e entry) Objectives {
	return objectiveVec(spec, e.grade, e.power, e.lifetimeNS)
}

// dominates reports whether a Pareto-dominates b: no worse on every
// axis and strictly better on at least one.
func dominates(a, b Objectives) bool {
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

// nondominated returns the indices of the vectors nothing dominates
// (the NSGA-II rank-0 front) in input order, so the result is a pure
// function of the input sequence.
func nondominated(vecs []Objectives) []int {
	var front []int
next:
	for i := range vecs {
		for j := range vecs {
			if dominates(vecs[j], vecs[i]) {
				continue next
			}
		}
		front = append(front, i)
	}
	return front
}

// crowdingDistances computes the NSGA-II crowding distance of every
// member of one front (indexed into vecs). Boundary points on any axis
// get +Inf; interior points sum the normalized neighbor gaps.
func crowdingDistances(vecs []Objectives, front []int) map[int]float64 {
	dist := make(map[int]float64, len(front))
	for _, i := range front {
		dist[i] = 0
	}
	if len(front) == 0 {
		return dist
	}
	k := len(vecs[front[0]])
	order := append([]int(nil), front...)
	for ax := 0; ax < k; ax++ {
		sort.SliceStable(order, func(a, b int) bool {
			va, vb := vecs[order[a]][ax], vecs[order[b]][ax]
			if va != vb {
				return va < vb
			}
			return order[a] < order[b]
		})
		lo, hi := vecs[order[0]][ax], vecs[order[len(order)-1]][ax]
		dist[order[0]] = math.Inf(1)
		dist[order[len(order)-1]] = math.Inf(1)
		span := hi - lo
		if span <= 0 {
			continue
		}
		for i := 1; i < len(order)-1; i++ {
			dist[order[i]] += (vecs[order[i+1]][ax] - vecs[order[i-1]][ax]) / span
		}
	}
	return dist
}

// frontIndices returns the rank-0 (non-dominated) indices of the
// validated set, ordered by crowding distance descending — the NSGA
// selection order, preferring the extremes and the sparse middle — with
// index order breaking ties so the result is deterministic.
func frontIndices(spec ssdconf.ObjectiveSpec, validated []entry) []int {
	vecs := make([]Objectives, len(validated))
	for i, e := range validated {
		vecs[i] = objectivesOf(spec, e)
	}
	front := nondominated(vecs)
	dist := crowdingDistances(vecs, front)
	sort.SliceStable(front, func(a, b int) bool {
		da, db := dist[front[a]], dist[front[b]]
		if da != db {
			return da > db
		}
		return front[a] < front[b]
	})
	// Distinct configurations can measure to the exact same objective
	// vector; the duplicates add nothing to the front (crowding distance
	// zero between them) and would eat population-advance slots, so keep
	// only the first of each group in selection order.
	seen := make(map[string]bool, len(front))
	uniq := front[:0]
	for _, i := range front {
		k := fmt.Sprintf("%v", vecs[i])
		if seen[k] {
			continue
		}
		seen[k] = true
		uniq = append(uniq, i)
	}
	return uniq
}

// normalize min-max scales every vector into [0,1]^k over the whole
// set; a constant axis maps to 0.5 so it contributes a fixed factor.
func normalize(vecs []Objectives) []Objectives {
	if len(vecs) == 0 {
		return nil
	}
	k := len(vecs[0])
	lo := make([]float64, k)
	hi := make([]float64, k)
	for ax := 0; ax < k; ax++ {
		lo[ax], hi[ax] = math.Inf(1), math.Inf(-1)
	}
	for _, v := range vecs {
		for ax := 0; ax < k; ax++ {
			lo[ax] = math.Min(lo[ax], v[ax])
			hi[ax] = math.Max(hi[ax], v[ax])
		}
	}
	out := make([]Objectives, len(vecs))
	for i, v := range vecs {
		nv := make(Objectives, k)
		for ax := 0; ax < k; ax++ {
			if span := hi[ax] - lo[ax]; span > 0 {
				nv[ax] = (v[ax] - lo[ax]) / span
			} else {
				nv[ax] = 0.5
			}
		}
		out[i] = nv
	}
	return out
}

// hypervolume measures the fraction of the normalized unit hypercube
// dominated by the front (reference point at the per-axis minimum of
// the whole validated set). Exact for 1–3 axes, which covers every
// expressible spec.
func hypervolume(vecs []Objectives, front []int) float64 {
	if len(front) == 0 {
		return 0
	}
	norm := normalize(vecs)
	pts := make([]Objectives, len(front))
	for i, idx := range front {
		pts[i] = norm[idx]
	}
	switch len(pts[0]) {
	case 1:
		best := 0.0
		for _, p := range pts {
			best = math.Max(best, p[0])
		}
		return best
	case 2:
		return hv2(pts)
	default:
		return hv3(pts)
	}
}

// hv2 sweeps x from high to low, accumulating width × best-y-so-far.
func hv2(pts []Objectives) float64 {
	order := append([]Objectives(nil), pts...)
	sort.SliceStable(order, func(a, b int) bool { return order[a][0] > order[b][0] })
	hv, maxY := 0.0, 0.0
	for i, p := range order {
		nextX := 0.0
		if i+1 < len(order) {
			nextX = order[i+1][0]
		}
		maxY = math.Max(maxY, p[1])
		hv += (p[0] - nextX) * maxY
	}
	return hv
}

// hv3 slices along z: each slab's volume is its height times the 2D
// hypervolume of every point at or above that z.
func hv3(pts []Objectives) float64 {
	order := append([]Objectives(nil), pts...)
	sort.SliceStable(order, func(a, b int) bool { return order[a][2] > order[b][2] })
	hv := 0.0
	for i := range order {
		if i+1 < len(order) && order[i+1][2] == order[i][2] {
			continue // same slab; handled when the last equal z is reached
		}
		nextZ := 0.0
		if i+1 < len(order) {
			nextZ = order[i+1][2]
		}
		if h := order[i][2] - nextZ; h > 0 {
			prefix := make([]Objectives, i+1)
			copy(prefix, order[:i+1])
			hv += h * hv2(prefix)
		}
	}
	return hv
}

// FrontPoint is one non-dominated configuration on the Pareto front, in
// reporting form.
type FrontPoint struct {
	Cfg ssdconf.Config `json:"cfg"`
	// Grade is the scalar performance grade (Formula 2) — the perf axis.
	Grade float64 `json:"grade"`
	// PowerWatts is the mean target-cluster power draw — the power axis.
	PowerWatts float64 `json:"power_watts"`
	// LifetimeNS is the projected device lifetime in nanoseconds
	// (0 = no wear observed, i.e. unbounded) — the lifetime axis.
	LifetimeNS int64 `json:"lifetime_ns"`
	// LatencySpeedup / ThroughputSpeedup are the target-cluster speedups
	// over the reference configuration.
	LatencySpeedup    float64 `json:"latency_speedup"`
	ThroughputSpeedup float64 `json:"throughput_speedup"`
}

// buildFront extracts the rank-0 front of the validated set as report
// points (grade-descending, config key breaking ties — a stable,
// worker-count-independent order) plus its normalized hypervolume.
func buildFront(spec ssdconf.ObjectiveSpec, validated []entry) ([]FrontPoint, float64) {
	idx := frontIndices(spec, validated)
	if len(idx) == 0 {
		return nil, 0
	}
	vecs := make([]Objectives, len(validated))
	for i, e := range validated {
		vecs[i] = objectivesOf(spec, e)
	}
	hv := hypervolume(vecs, idx)
	sort.SliceStable(idx, func(a, b int) bool {
		ea, eb := validated[idx[a]], validated[idx[b]]
		if ea.grade != eb.grade {
			return ea.grade > eb.grade
		}
		return ea.cfg.Key() < eb.cfg.Key()
	})
	pts := make([]FrontPoint, len(idx))
	for i, vi := range idx {
		e := validated[vi]
		pts[i] = FrontPoint{
			Cfg: e.cfg.Clone(), Grade: e.grade, PowerWatts: e.power,
			LifetimeNS: e.lifetimeNS, LatencySpeedup: e.latSp, ThroughputSpeedup: e.tputSp,
		}
	}
	return pts, hv
}

// searchWeights is the per-iteration scalarization the Pareto search
// hands its GPR surrogate: min-max-normalized objectives collapsed with
// a deterministic weight cycle that emphasizes one axis per iteration
// (weight 3 vs 1), so successive iterations climb different hills of
// the trade-off surface without spending any shared-RNG draws.
func searchWeights(k, iter int) []float64 {
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = 1
		if i == iter%k {
			w[i] = 3
		}
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// scalarizedScores maps the validated set onto surrogate targets for
// one Pareto iteration.
func scalarizedScores(spec ssdconf.ObjectiveSpec, validated []entry, iter int) []float64 {
	vecs := make([]Objectives, len(validated))
	for i, e := range validated {
		vecs[i] = objectivesOf(spec, e)
	}
	norm := normalize(vecs)
	w := searchWeights(len(spec.Axes), iter)
	ys := make([]float64, len(validated))
	for i, v := range norm {
		s := 0.0
		for ax, wv := range w {
			s += wv * v[ax]
		}
		ys[i] = s
	}
	return ys
}
