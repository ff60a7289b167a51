package ssd

import (
	"math"
	"testing"
	"time"
)

// tally folds counts as the engine folds its blocks' erase counts.
func tally(counts ...int64) (w wearTally) {
	for _, ec := range counts {
		w.add(ec)
	}
	return w
}

func TestComputeWearExtrapolation(t *testing.T) {
	// Hottest block at 100 erases over a 10-second run, limit 3000:
	// rate = 10 erases/s, remaining 2900 cycles → 290 s of lifetime.
	counts := []int64{100, 50, 50}
	r := computeWear(tally(counts...), 3000, 10*int64(time.Second))
	if r.MaxEraseCount != 100 {
		t.Fatalf("MaxEraseCount = %d, want 100", r.MaxEraseCount)
	}
	if want := 200.0 / 3.0; math.Abs(r.MeanEraseCount-want) > 1e-9 {
		t.Fatalf("MeanEraseCount = %g, want %g", r.MeanEraseCount, want)
	}
	if want := 290 * time.Second; r.ProjectedLifetime != want {
		t.Fatalf("ProjectedLifetime = %v, want %v", r.ProjectedLifetime, want)
	}
	if r.PECycleLimit != 3000 {
		t.Fatalf("PECycleLimit = %d, want 3000", r.PECycleLimit)
	}
}

func TestComputeWearImbalance(t *testing.T) {
	// max 90 over mean 30 → imbalance 3.0.
	r := computeWear(tally(90, 0, 0), 1000, int64(time.Second))
	if want := 3.0; math.Abs(r.Imbalance-want) > 1e-9 {
		t.Fatalf("Imbalance = %g, want %g", r.Imbalance, want)
	}
	// Perfectly level wear → imbalance exactly 1.
	r = computeWear(tally(7, 7, 7, 7), 1000, int64(time.Second))
	if r.Imbalance != 1.0 {
		t.Fatalf("level Imbalance = %g, want 1", r.Imbalance)
	}
}

func TestComputeWearZeroErases(t *testing.T) {
	// No erases: no imbalance, no lifetime projection (0 = unbounded).
	r := computeWear(tally(0, 0, 0), 3000, 10*int64(time.Second))
	if r.MaxEraseCount != 0 || r.MeanEraseCount != 0 || r.Imbalance != 0 {
		t.Fatalf("zero-erase report not zero: %+v", r)
	}
	if r.ProjectedLifetime != 0 {
		t.Fatalf("ProjectedLifetime = %v, want 0 (unbounded)", r.ProjectedLifetime)
	}
	// Same for an empty block set.
	r = computeWear(tally(), 3000, 10*int64(time.Second))
	if r.MaxEraseCount != 0 || r.MeanEraseCount != 0 || r.ProjectedLifetime != 0 {
		t.Fatalf("empty report not zero: %+v", r)
	}
}

func TestComputeWearZeroMakespan(t *testing.T) {
	// Erases happened but the makespan is 0: no rate to extrapolate.
	r := computeWear(tally(10, 5), 3000, 0)
	if r.MaxEraseCount != 10 {
		t.Fatalf("MaxEraseCount = %d, want 10", r.MaxEraseCount)
	}
	if r.ProjectedLifetime != 0 {
		t.Fatalf("ProjectedLifetime = %v, want 0", r.ProjectedLifetime)
	}
}

func TestComputeWearPastLimit(t *testing.T) {
	// Hottest block already past its rating: no positive lifetime left.
	r := computeWear(tally(3500), 3000, 10*int64(time.Second))
	if r.ProjectedLifetime != 0 {
		t.Fatalf("ProjectedLifetime = %v, want 0", r.ProjectedLifetime)
	}
}

func TestComputeWearLifetimeCap(t *testing.T) {
	// A near-zero erase rate extrapolates to an astronomically long
	// lifetime; the report must cap instead of overflowing Duration.
	r := computeWear(tally(1), 100_000, int64(time.Second))
	if r.ProjectedLifetime <= 0 {
		t.Fatalf("ProjectedLifetime = %v, want positive", r.ProjectedLifetime)
	}
	r = computeWear(tally(1), math.MaxInt64/2, int64(time.Second))
	if r.ProjectedLifetime <= 0 {
		t.Fatalf("capped ProjectedLifetime = %v, want positive", r.ProjectedLifetime)
	}
}
