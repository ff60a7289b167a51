package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autoblox/internal/linalg"
)

// blobs generates k well-separated Gaussian blobs.
func blobs(rng *rand.Rand, k, perCluster, d int, sep float64) (*linalg.Matrix, []int) {
	rows := make([][]float64, 0, k*perCluster)
	truth := make([]int, 0, k*perCluster)
	for c := 0; c < k; c++ {
		center := make([]float64, d)
		for j := range center {
			center[j] = float64(c) * sep * float64(j%2*2-1) // alternate directions
		}
		center[0] = float64(c) * sep
		for i := 0; i < perCluster; i++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = center[j] + rng.NormFloat64()*0.3
			}
			rows = append(rows, p)
			truth = append(truth, c)
		}
	}
	return linalg.FromRows(rows), truth
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(linalg.NewMatrix(0, 0), Config{K: 2}); err == nil {
		t.Fatal("expected error on empty data")
	}
	data := linalg.FromRows([][]float64{{1}, {2}})
	if _, err := Fit(data, Config{K: 0}); err == nil {
		t.Fatal("expected error on K=0")
	}
	if _, err := Fit(data, Config{K: 3}); err == nil {
		t.Fatal("expected error on K>n")
	}
}

func TestSeparatedBlobsRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data, truth := blobs(rng, 3, 50, 4, 20)
	m, err := Fit(data, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same-truth points must share a label; different-truth points must not.
	mapping := map[int]int{}
	for i, l := range m.Labels {
		if prev, ok := mapping[truth[i]]; ok {
			if prev != l {
				t.Fatalf("cluster %d split across labels %d and %d", truth[i], prev, l)
			}
		} else {
			mapping[truth[i]] = l
		}
	}
	if len(mapping) != 3 {
		t.Fatalf("expected 3 distinct labels, got %d", len(mapping))
	}
}

func TestPredictMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := blobs(rng, 4, 30, 3, 15)
	m, err := Fit(data, Config{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < data.Rows; i++ {
		c, d := m.PredictVec(data.Row(i))
		if c != m.Labels[i] {
			t.Fatalf("PredictVec disagrees with training labels at %d", i)
		}
		if d < 0 {
			t.Fatalf("negative distance")
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := blobs(rng, 5, 20, 3, 10)
	var prev float64 = math.Inf(1)
	for k := 1; k <= 5; k++ {
		m, err := Fit(data, Config{K: k, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if m.Inertia > prev+1e-9 {
			t.Fatalf("inertia increased from k=%d to k=%d: %g -> %g", k-1, k, prev, m.Inertia)
		}
		prev = m.Inertia
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data, _ := blobs(rng, 3, 25, 2, 12)
	a, _ := Fit(data, Config{K: 3, Seed: 9})
	b, _ := Fit(data, Config{K: 3, Seed: 9})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

// Property: every sample's assigned center is the closest one.
func TestAssignmentOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 20+rng.Intn(40), 1+rng.Intn(4)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.Float64() * 10
			}
		}
		data := linalg.FromRows(rows)
		k := 1 + rng.Intn(4)
		m, err := Fit(data, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			assigned := sqDist(m.Centers.Row(m.Labels[i]), data.Row(i))
			for c := 0; c < k; c++ {
				if sqDist(m.Centers.Row(c), data.Row(i)) < assigned-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCenterDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, _ := blobs(rng, 3, 30, 2, 10)
	m, _ := Fit(data, Config{K: 3, Seed: 1})
	d := m.MinCenterDistance()
	if d < 5 || d > 40 {
		t.Fatalf("MinCenterDistance %g outside plausible range for sep=10 blobs", d)
	}
	one, _ := Fit(data, Config{K: 1, Seed: 1})
	if one.MinCenterDistance() != 0 {
		t.Fatal("single-cluster MinCenterDistance should be 0")
	}
}

func TestClusterDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := blobs(rng, 2, 50, 2, 30)
	m, _ := Fit(data, Config{K: 2, Seed: 1})
	for c := 0; c < 2; c++ {
		dia := m.ClusterDiameter(data, c)
		// Points have σ≈0.3 per axis in 2-D → RMS distance ≈ 0.42, diameter ≈ 0.85.
		if dia < 0.3 || dia > 2.5 {
			t.Fatalf("diameter %g implausible", dia)
		}
	}
}

func TestCentroid(t *testing.T) {
	data := linalg.FromRows([][]float64{{0, 0}, {2, 4}})
	c := Centroid(data)
	if c[0] != 1 || c[1] != 2 {
		t.Fatalf("Centroid = %v, want [1 2]", c)
	}
	if d := Distance([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Fatalf("Distance = %g, want 5", d)
	}
}

func TestSilhouette(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tight, _ := blobs(rng, 3, 30, 3, 25) // far-apart blobs
	m, _ := Fit(tight, Config{K: 3, Seed: 1})
	sTight := m.Silhouette(tight)
	if sTight < 0.8 {
		t.Fatalf("tight blobs silhouette %g, want near 1", sTight)
	}
	// Overlapping blobs score lower.
	loose, _ := blobs(rng, 3, 30, 3, 0.5)
	m2, _ := Fit(loose, Config{K: 3, Seed: 1})
	if s := m2.Silhouette(loose); s >= sTight {
		t.Fatalf("overlapping blobs silhouette %g should be below %g", s, sTight)
	}
	// Degenerate cases.
	one, _ := Fit(tight, Config{K: 1, Seed: 1})
	if one.Silhouette(tight) != 0 {
		t.Fatal("K=1 silhouette should be 0")
	}
}
