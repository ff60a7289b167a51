package workload

import (
	"testing"
	"testing/quick"

	"autoblox/internal/trace"
)

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate(Category("nope"), Options{}); err == nil {
		t.Fatal("expected error for unknown category")
	}
}

func TestGenerateAllCategories(t *testing.T) {
	for _, c := range All() {
		tr, err := Generate(c, Options{Requests: 2000, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if len(tr.Requests) != 2000 {
			t.Fatalf("%s: got %d requests", c, len(tr.Requests))
		}
		if tr.Name != string(c) {
			t.Fatalf("%s: trace name %q", c, tr.Name)
		}
		span := profiles[c].spanSectors
		var prev int64 = -1
		for i, r := range tr.Requests {
			if int64(r.Arrival) < prev {
				t.Fatalf("%s: arrivals not monotone at %d", c, i)
			}
			prev = int64(r.Arrival)
			if r.LBA+uint64(r.Sectors) > span {
				t.Fatalf("%s: request %d exceeds span", c, i)
			}
			if r.Sectors == 0 {
				t.Fatalf("%s: zero-size request", c)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(Database, Options{Requests: 500, Seed: 42})
	b := MustGenerate(Database, Options{Requests: 500, Seed: 42})
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("same seed differs at %d", i)
		}
	}
	c := MustGenerate(Database, Options{Requests: 500, Seed: 43})
	same := true
	for i := range a.Requests {
		if a.Requests[i] != c.Requests[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestProfilesMatchPaperCharacteristics(t *testing.T) {
	ws := MustGenerate(WebSearch, Options{Requests: 5000, Seed: 7})
	if rf := trace.ComputeStats(ws).ReadFraction; rf < 0.99 {
		t.Fatalf("WebSearch read fraction %g, paper says 99.9%%", rf)
	}
	ba := MustGenerate(BatchAnalytics, Options{Requests: 5000, Seed: 7})
	if rf := trace.ComputeStats(ba).ReadFraction; rf < 0.95 {
		t.Fatalf("BatchAnalytics read fraction %g, paper says 97.8%%", rf)
	}
	fiu := MustGenerate(FIU, Options{Requests: 5000, Seed: 7})
	if rf := trace.ComputeStats(fiu).ReadFraction; rf > 0.5 {
		t.Fatalf("FIU should be write-dominated, read fraction %g", rf)
	}
	// CloudStorage moves much more data per request than WebSearch.
	cs := MustGenerate(CloudStorage, Options{Requests: 5000, Seed: 7})
	csBytes, wsBytes := trace.ComputeStats(cs).TotalBytes, trace.ComputeStats(ws).TotalBytes
	if csBytes < 10*wsBytes {
		t.Fatalf("CloudStorage bytes %d should dwarf WebSearch %d", csBytes, wsBytes)
	}
}

func TestCategoriesAreDistinguishable(t *testing.T) {
	// Feature centroids of different categories must be farther apart
	// than windows within a category — a precondition for Fig. 2.
	feats := map[Category][][]float64{}
	for _, c := range []Category{WebSearch, CloudStorage, Database} {
		tr := MustGenerate(c, Options{Requests: 9000, Seed: 3})
		feats[c] = trace.FeatureMatrix(trace.Windows(tr, 3000))
	}
	centroid := func(rows [][]float64) []float64 {
		c := make([]float64, len(rows[0]))
		for _, r := range rows {
			for j, v := range r {
				c[j] += v
			}
		}
		for j := range c {
			c[j] /= float64(len(rows))
		}
		return c
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	cw := centroid(feats[WebSearch])
	cc := centroid(feats[CloudStorage])
	cd := centroid(feats[Database])
	if dist(cw, cc) < 1 || dist(cw, cd) < 1 || dist(cc, cd) < 1 {
		t.Fatalf("category centroids too close: ws-cs=%g ws-db=%g cs-db=%g",
			dist(cw, cc), dist(cw, cd), dist(cc, cd))
	}
}

func TestStudiedNewAll(t *testing.T) {
	if len(Studied()) != 7 || len(New()) != 6 || len(All()) != 13 {
		t.Fatalf("category counts wrong: %d/%d/%d", len(Studied()), len(New()), len(All()))
	}
	for _, c := range All() {
		if Describe(c) == "unknown" {
			t.Fatalf("Describe(%s) unknown", c)
		}
	}
}

// Property: any request count and seed produce a well-formed trace.
func TestGenerateWellFormedProperty(t *testing.T) {
	cats := All()
	f := func(seed int64, nRaw uint16, catIdx uint8) bool {
		n := int(nRaw%3000) + 1
		c := cats[int(catIdx)%len(cats)]
		tr, err := Generate(c, Options{Requests: n, Seed: seed})
		if err != nil || len(tr.Requests) != n {
			return false
		}
		span := profiles[c].spanSectors
		for _, r := range tr.Requests {
			if r.LBA+uint64(r.Sectors) > span || r.Sectors == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
