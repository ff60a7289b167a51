// Package core implements AutoBlox itself: learning-based workload
// clustering (§3.1), the ML formulation of SSD tuning (§3.2),
// coarse/fine parameter pruning (§3.3), the customized Bayesian-
// optimization tuning loop with SGD search, GPR grade prediction and
// simulator-backed efficiency validation (§3.4), and what-if analysis
// (§4.5).
package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"autoblox/internal/kmeans"
	"autoblox/internal/linalg"
	"autoblox/internal/obs"
	"autoblox/internal/pca"
	"autoblox/internal/trace"
)

// PCADims is the PCA output dimensionality (§3.1: 5 dimensions capture
// ~70% of the explainable variance).
const PCADims = 5

// DefaultNewClusterThreshold is the center-distance threshold beyond
// which a workload forms a new cluster. The paper uses 20 in its PCA
// space; the threshold is rescaled to the trained model's own scale
// (minimum inter-center distance) when AutoAdjustThreshold is set.
const DefaultNewClusterThreshold = 20.0

// ClustererConfig controls training. Windows are
// trace.DefaultWindowSize entries, and a workload farther than
// DefaultNewClusterThreshold from every center is novel.
type ClustererConfig struct {
	K    int   // number of clusters; 0 = number of training traces
	Seed int64 // RNG seed
	// AutoAdjustThreshold rescales the threshold to the minimum distance
	// between trained cluster centers, which is how the paper motivates
	// the value ("corresponds to the minimum distance between existing
	// clusters").
	AutoAdjustThreshold bool
}

func (c *ClustererConfig) defaults(nTraces int) {
	if c.K <= 0 {
		c.K = nTraces
	}
}

// Clusterer is the trained workload-clustering model: windowing →
// feature normalization → PCA(5) → k-means.
type Clusterer struct {
	PCA       *pca.PCA
	KMeans    *kmeans.Model
	Window    int
	Threshold float64
	// Labels maps cluster index -> majority training category.
	Labels []string
	// projected holds the training windows' PCA coordinates (for
	// diameters and Fig. 2 scatter data).
	projected *linalg.Matrix
	// windowCats holds the category of each training window.
	windowCats []string
}

// Assignment is the result of clustering one workload.
type Assignment struct {
	Cluster  int     // nearest cluster index
	Label    string  // that cluster's category label
	Distance float64 // distance from the workload centroid to the cluster center
	IsNew    bool    // true when Distance exceeds the threshold (new workload type)
}

// TrainClusterer fits the clustering pipeline on one representative
// trace per category. It streams each trace through the windowed
// feature extractor via TrainClustererSources; only the per-window
// feature rows (18 floats each) are retained.
func TrainClusterer(traces []*trace.Trace, cfg ClustererConfig) (*Clusterer, error) {
	srcs := make([]trace.Source, len(traces))
	for i, tr := range traces {
		srcs[i] = tr.Source()
	}
	return TrainClustererSources(srcs, cfg)
}

// TrainClustererSources fits the clustering pipeline on one streaming
// source per category (a slice, not a map, so training-row order — and
// therefore the fitted model — is deterministic). Each source is
// consumed in a single windowed pass; the traces themselves are never
// materialized.
func TrainClustererSources(srcs []trace.Source, cfg ClustererConfig) (*Clusterer, error) {
	sp := obs.StartSpan("clustering").ArgInt("traces", int64(len(srcs)))
	defer sp.End()
	if len(srcs) == 0 {
		return nil, errors.New("core: no training traces")
	}
	cfg.defaults(len(srcs))

	var rows [][]float64
	var cats []string
	for _, src := range srcs {
		err := trace.ScanWindows(src, trace.DefaultWindowSize, func(w *trace.Trace) error {
			rows = append(rows, trace.WindowFeatures(w))
			cats = append(cats, src.Name())
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: windowing %q: %w", src.Name(), err)
		}
	}
	if len(rows) < cfg.K {
		return nil, fmt.Errorf("core: %d windows for %d clusters; need longer traces", len(rows), cfg.K)
	}
	feat := linalg.FromRows(rows)

	dims := PCADims
	if dims > feat.Cols {
		dims = feat.Cols
	}
	p, proj, err := pca.FitTransform(feat, dims)
	if err != nil {
		return nil, fmt.Errorf("core: pca: %w", err)
	}
	km, err := kmeans.Fit(proj, kmeans.Config{K: cfg.K, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: kmeans: %w", err)
	}

	c := &Clusterer{
		PCA: p, KMeans: km, Window: trace.DefaultWindowSize,
		Threshold:  DefaultNewClusterThreshold,
		projected:  proj,
		windowCats: cats,
	}
	if cfg.AutoAdjustThreshold {
		if d := km.MinCenterDistance(); d > 0 {
			c.Threshold = d
		}
	}
	c.Labels = majorityLabels(km, cats)
	return c, nil
}

// majorityLabels assigns each cluster the most common training category
// among its windows.
func majorityLabels(km *kmeans.Model, cats []string) []string {
	counts := make([]map[string]int, km.K())
	for i := range counts {
		counts[i] = map[string]int{}
	}
	for i, l := range km.Labels {
		counts[l][cats[i]]++
	}
	labels := make([]string, km.K())
	for c, m := range counts {
		best, bestN := "", -1
		for cat, n := range m {
			if n > bestN || (n == bestN && cat < best) {
				best, bestN = cat, n
			}
		}
		labels[c] = best
	}
	return labels
}

// Assign clusters a new workload: its windows are featurized, projected,
// and the centroid compared against cluster centers (§3.1's distance
// test against the threshold).
func (c *Clusterer) Assign(tr *trace.Trace) (Assignment, error) {
	return c.AssignSource(tr.Source())
}

// AssignSource is Assign over a streaming source: the trace's windows
// are featurized in one pass without materializing the request slice.
func (c *Clusterer) AssignSource(src trace.Source) (Assignment, error) {
	rows, err := trace.FeatureMatrixSource(src, c.Window)
	if err != nil {
		return Assignment{}, err
	}
	if len(rows) == 0 {
		return Assignment{}, errors.New("core: empty trace")
	}
	feat := linalg.FromRows(rows)
	proj, err := c.PCA.Transform(feat)
	if err != nil {
		return Assignment{}, err
	}
	centroid := kmeans.Centroid(proj)
	cluster, dist := c.KMeans.PredictVec(centroid)
	return Assignment{
		Cluster:  cluster,
		Label:    c.Labels[cluster],
		Distance: dist,
		IsNew:    dist > c.Threshold,
	}, nil
}

// ValidationAccuracy computes the fraction of validation windows that
// land in the cluster whose majority label matches the window's own
// category — the paper reports ~95% (§3.1). Windows are streamed and
// scored one at a time.
func (c *Clusterer) ValidationAccuracy(traces []*trace.Trace) (float64, error) {
	var correct, total int
	for _, tr := range traces {
		name := tr.Name
		err := trace.ScanWindows(tr.Source(), c.Window, func(w *trace.Trace) error {
			feat := linalg.FromRows([][]float64{trace.WindowFeatures(w)})
			proj, err := c.PCA.Transform(feat)
			if err != nil {
				return err
			}
			cl, _ := c.KMeans.PredictVec(proj.Row(0))
			if c.Labels[cl] == name {
				correct++
			}
			total++
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if total == 0 {
		return 0, errors.New("core: no validation windows")
	}
	return float64(correct) / float64(total), nil
}

// ScatterPoint is one training window in PCA space — the Fig. 2 data.
type ScatterPoint struct {
	X, Y     float64
	Cluster  int
	Category string
}

// Scatter returns the 2-D PCA scatter of the training windows (the first
// two principal components), as plotted in Fig. 2.
func (c *Clusterer) Scatter() []ScatterPoint {
	out := make([]ScatterPoint, c.projected.Rows)
	for i := 0; i < c.projected.Rows; i++ {
		out[i] = ScatterPoint{
			X: c.projected.At(i, 0), Y: c.projected.At(i, 1),
			Cluster:  c.KMeans.Labels[i],
			Category: c.windowCats[i],
		}
	}
	return out
}

// Silhouette reports the clustering's mean silhouette coefficient over
// the training windows (a standard cluster-quality score; near 1 means
// tight, well-separated workload clusters).
func (c *Clusterer) Silhouette() float64 {
	if c.projected == nil || c.projected.Rows == 0 {
		return 0
	}
	return c.KMeans.Silhouette(c.projected)
}

// ClusterDiameter reports the training diameter of a cluster, used to
// describe how far new workloads sit from known ones (§4.2 reports new
// traces at 2.2× the diameter of existing clusters).
func (c *Clusterer) ClusterDiameter(cluster int) float64 {
	return c.KMeans.ClusterDiameter(c.projected, cluster)
}

// ClusterOf returns the cluster index whose label matches the category,
// or -1.
func (c *Clusterer) ClusterOf(category string) int {
	for i, l := range c.Labels {
		if l == category {
			return i
		}
	}
	return -1
}

// serializedClusterer is the JSON form persisted to AutoDB.
type serializedClusterer struct {
	Window     int         `json:"window"`
	Threshold  float64     `json:"threshold"`
	Labels     []string    `json:"labels"`
	Mean       []float64   `json:"pca_mean"`
	Components [][]float64 `json:"pca_components"`
	Centers    [][]float64 `json:"kmeans_centers"`
}

// Marshal serializes the model (without training scatter data).
func (c *Clusterer) Marshal() ([]byte, error) {
	s := serializedClusterer{
		Window: c.Window, Threshold: c.Threshold, Labels: c.Labels,
		Mean: c.PCA.Mean,
	}
	for i := 0; i < c.PCA.Components.Rows; i++ {
		s.Components = append(s.Components, append([]float64(nil), c.PCA.Components.Row(i)...))
	}
	for i := 0; i < c.KMeans.Centers.Rows; i++ {
		s.Centers = append(s.Centers, append([]float64(nil), c.KMeans.Centers.Row(i)...))
	}
	return json.Marshal(s)
}

// UnmarshalClusterer restores a model serialized by Marshal. The restored
// model supports Assign and ValidationAccuracy but not Scatter (training
// windows are not persisted).
func UnmarshalClusterer(blob []byte) (*Clusterer, error) {
	var s serializedClusterer
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("core: unmarshal clusterer: %w", err)
	}
	if len(s.Components) == 0 || len(s.Centers) == 0 {
		return nil, errors.New("core: serialized clusterer incomplete")
	}
	c := &Clusterer{
		Window:    s.Window,
		Threshold: s.Threshold,
		Labels:    s.Labels,
		PCA:       &pca.PCA{Components: linalg.FromRows(s.Components), Mean: s.Mean},
		KMeans:    &kmeans.Model{Centers: linalg.FromRows(s.Centers)},
		projected: linalg.NewMatrix(0, len(s.Centers[0])),
	}
	return c, nil
}

// AddWorkload retrains the clustering model with one more cluster to
// accommodate a novel workload (§3.1: "If AutoBlox cannot identify a
// similar cluster, it will retrain the k-means model with one more
// cluster"). The returned model includes the previous training windows
// plus the new trace's; the original model is unchanged.
func (c *Clusterer) AddWorkload(tr *trace.Trace, seed int64) (*Clusterer, error) {
	if c.projected == nil || len(c.windowCats) == 0 {
		return nil, errors.New("core: AddWorkload requires a model with training data (not a deserialized one)")
	}
	// Rebuild the raw feature rows: reproject is not enough, we must
	// refit PCA over the union. Training windows' raw features were not
	// retained, so reconstruct them from the stored projections by
	// keeping the existing PCA basis and fitting k-means in that space
	// over old projections + the new trace's projections.
	rows, err := trace.FeatureMatrixSource(tr.Source(), c.Window)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errors.New("core: empty trace")
	}
	newFeat := linalg.FromRows(rows)
	newProj, err := c.PCA.Transform(newFeat)
	if err != nil {
		return nil, err
	}

	total := c.projected.Rows + newProj.Rows
	all := linalg.NewMatrix(total, c.projected.Cols)
	copy(all.Data[:len(c.projected.Data)], c.projected.Data)
	copy(all.Data[len(c.projected.Data):], newProj.Data)

	cats := append(append([]string(nil), c.windowCats...), make([]string, newProj.Rows)...)
	for i := 0; i < newProj.Rows; i++ {
		cats[c.projected.Rows+i] = tr.Name
	}

	km, err := kmeans.Fit(all, kmeans.Config{K: c.KMeans.K() + 1, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("core: retrain: %w", err)
	}
	out := &Clusterer{
		PCA: c.PCA, KMeans: km, Window: c.Window,
		Threshold:  c.Threshold,
		projected:  all,
		windowCats: cats,
	}
	if d := km.MinCenterDistance(); d > 0 && c.Threshold > 0 {
		out.Threshold = d
	}
	out.Labels = majorityLabels(km, cats)
	return out, nil
}
