// Package kmeans implements k-means clustering with k-means++ seeding.
//
// AutoBlox (§3.1) clusters PCA-reduced I/O trace windows with k-means and
// decides whether a new workload belongs to an existing cluster by
// comparing the distance between the new workload's center and each
// existing cluster center against a threshold; when no cluster is close
// enough the model is retrained with one more cluster.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"autoblox/internal/linalg"
)

// Model holds a fitted k-means clustering.
type Model struct {
	// Centers holds one centroid per row (k × nFeatures).
	Centers *linalg.Matrix
	// Labels holds the cluster assignment of each training sample.
	Labels []int
	// Inertia is the summed squared distance of samples to their centers.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// maxIter caps the Lloyd iterations of one restart.
const maxIter = 100

// restarts is the number of seeded k-means++ restarts; the lowest
// inertia is kept.
const restarts = 5

// Config controls the clustering run.
type Config struct {
	K    int   // number of clusters (required, ≥1)
	Seed int64 // RNG seed for k-means++ seeding
}

// Fit clusters data (rows are samples) into cfg.K clusters.
func Fit(data *linalg.Matrix, cfg Config) (*Model, error) {
	n, d := data.Rows, data.Cols
	if n == 0 || d == 0 {
		return nil, errors.New("kmeans: empty data")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K=%d must be >= 1", cfg.K)
	}
	if cfg.K > n {
		return nil, fmt.Errorf("kmeans: K=%d exceeds sample count %d", cfg.K, n)
	}
	var best *Model
	for r := 0; r < restarts; r++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
		m := lloyd(data, cfg.K, rng)
		if best == nil || m.Inertia < best.Inertia {
			best = m
		}
	}
	return best, nil
}

func lloyd(data *linalg.Matrix, k int, rng *rand.Rand) *Model {
	n, d := data.Rows, data.Cols
	centers := seedPlusPlus(data, k, rng)
	labels := make([]int, n)
	counts := make([]int, k)

	var iter int
	for iter = 0; iter < maxIter; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			c := nearest(centers, data.Row(i))
			if c != labels[i] {
				labels[i] = c
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		for i := range centers.Data {
			centers.Data[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			c := labels[i]
			counts[c]++
			cr := centers.Row(c)
			for j, v := range data.Row(i) {
				cr[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its center.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					dd := sqDist(centers.Row(labels[i]), data.Row(i))
					if dd > farD {
						far, farD = i, dd
					}
				}
				copy(centers.Row(c), data.Row(far))
				continue
			}
			inv := 1 / float64(counts[c])
			cr := centers.Row(c)
			for j := 0; j < d; j++ {
				cr[j] *= inv
			}
		}
	}

	var inertia float64
	for i := 0; i < n; i++ {
		inertia += sqDist(centers.Row(labels[i]), data.Row(i))
	}
	return &Model{Centers: centers, Labels: labels, Inertia: inertia, Iterations: iter}
}

// seedPlusPlus chooses k initial centers with the k-means++ strategy.
func seedPlusPlus(data *linalg.Matrix, k int, rng *rand.Rand) *linalg.Matrix {
	n, d := data.Rows, data.Cols
	centers := linalg.NewMatrix(k, d)
	first := rng.Intn(n)
	copy(centers.Row(0), data.Row(first))

	dist := make([]float64, n)
	for i := range dist {
		dist[i] = sqDist(centers.Row(0), data.Row(i))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, dd := range dist {
			total += dd
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var cum float64
			for i, dd := range dist {
				cum += dd
				if cum >= target {
					pick = i
					break
				}
			}
		}
		copy(centers.Row(c), data.Row(pick))
		for i := range dist {
			if dd := sqDist(centers.Row(c), data.Row(i)); dd < dist[i] {
				dist[i] = dd
			}
		}
	}
	return centers
}

// PredictVec returns the nearest-center index and the Euclidean distance
// to that center for a single sample.
func (m *Model) PredictVec(v []float64) (int, float64) {
	c := nearest(m.Centers, v)
	return c, math.Sqrt(sqDist(m.Centers.Row(c), v))
}

// K returns the number of clusters.
func (m *Model) K() int { return m.Centers.Rows }

// MinCenterDistance returns the smallest pairwise distance between
// cluster centers; AutoBlox uses this scale to pick the new-cluster
// threshold.
func (m *Model) MinCenterDistance() float64 {
	k := m.K()
	min := math.Inf(1)
	for a := 0; a < k-1; a++ {
		for b := a + 1; b < k; b++ {
			if d := math.Sqrt(sqDist(m.Centers.Row(a), m.Centers.Row(b))); d < min {
				min = d
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// ClusterDiameter returns, for cluster c, twice the RMS distance of the
// cluster's training points to the centroid — a robust "diameter" used
// when reporting how far a new workload sits from known clusters.
func (m *Model) ClusterDiameter(data *linalg.Matrix, c int) float64 {
	var sum float64
	var cnt int
	for i, l := range m.Labels {
		if l == c {
			sum += sqDist(m.Centers.Row(c), data.Row(i))
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return 2 * math.Sqrt(sum/float64(cnt))
}

func nearest(centers *linalg.Matrix, v []float64) int {
	best, bestD := 0, math.Inf(1)
	for c := 0; c < centers.Rows; c++ {
		if d := sqDist(centers.Row(c), v); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Centroid returns the mean of the given samples; it is the "center of
// the examined data points" the paper compares against cluster centers.
func Centroid(data *linalg.Matrix) []float64 {
	c := make([]float64, data.Cols)
	if data.Rows == 0 {
		return c
	}
	for i := 0; i < data.Rows; i++ {
		for j, v := range data.Row(i) {
			c[j] += v
		}
	}
	for j := range c {
		c[j] /= float64(data.Rows)
	}
	return c
}

// Distance returns the Euclidean distance between two vectors.
func Distance(a, b []float64) float64 { return math.Sqrt(sqDist(a, b)) }

// Silhouette computes the mean silhouette coefficient of the clustering
// over the given data: for each sample, (b-a)/max(a,b) where a is the
// mean distance to its own cluster's members and b the smallest mean
// distance to another cluster. Values near 1 indicate tight, well-
// separated clusters; near 0, overlapping ones. Used to report
// clustering quality alongside the Fig. 2 reproduction.
func (m *Model) Silhouette(data *linalg.Matrix) float64 {
	n := data.Rows
	if n < 2 || m.K() < 2 {
		return 0
	}
	var total float64
	var counted int
	for i := 0; i < n; i++ {
		own := m.Labels[i]
		sums := make([]float64, m.K())
		counts := make([]int, m.K())
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := Distance(data.Row(i), data.Row(j))
			sums[m.Labels[j]] += d
			counts[m.Labels[j]]++
		}
		if counts[own] == 0 {
			continue // singleton cluster: silhouette undefined
		}
		a := sums[own] / float64(counts[own])
		b := math.Inf(1)
		for c := 0; c < m.K(); c++ {
			if c == own || counts[c] == 0 {
				continue
			}
			if v := sums[c] / float64(counts[c]); v < b {
				b = v
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		denom := math.Max(a, b)
		if denom > 0 {
			total += (b - a) / denom
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
