package ssd

import "time"

// Endurance model: flash blocks survive a bounded number of
// program/erase cycles; wear leveling's job (and the paper's
// Static/Dynamic wear-leveling parameters) is to spread those cycles
// evenly so the device's lifetime is set by the average rather than the
// hottest block.

// peCycleLimit returns the rated P/E cycles for a flash type.
func peCycleLimit(t FlashType) int64 {
	switch t {
	case SLC:
		return 100_000
	case MLC:
		return 3_000
	default: // TLC
		return 1_000
	}
}

// WearReport summarizes block wear after a run.
type WearReport struct {
	// MaxEraseCount / MeanEraseCount over all simulated blocks (scaled
	// device; relative spread is what matters).
	MaxEraseCount  int64
	MeanEraseCount float64
	// Imbalance is max/mean (1.0 = perfectly level).
	Imbalance float64
	// PECycleLimit is the flash type's rated endurance.
	PECycleLimit int64
	// ProjectedLifetime extrapolates the measured erase rate (erases per
	// simulated second, on the hottest block) to the time until the
	// first block exceeds its P/E rating. Zero when no erases occurred.
	ProjectedLifetime time.Duration
}

// wearTally folds per-block erase counts into what computeWear reads.
type wearTally struct {
	blocks, total, max int64
}

func (w *wearTally) add(eraseCount int64) {
	w.blocks++
	w.total += eraseCount
	w.max = max(w.max, eraseCount)
}

// computeWear derives a WearReport from the tally of per-block erase
// counts, the flash type's P/E rating and the run's makespan — the pure
// core of the endurance model, shared by the engine and its tests.
func computeWear(w wearTally, limit, makespanNS int64) WearReport {
	r := WearReport{PECycleLimit: limit, MaxEraseCount: w.max}
	if w.blocks > 0 {
		r.MeanEraseCount = float64(w.total) / float64(w.blocks)
	}
	if r.MeanEraseCount > 0 {
		r.Imbalance = float64(r.MaxEraseCount) / r.MeanEraseCount
	}
	if r.MaxEraseCount > 0 && makespanNS > 0 {
		// Erases per second on the hottest block → seconds to the limit.
		rate := float64(r.MaxEraseCount) / (float64(makespanNS) / 1e9)
		secs := float64(r.PECycleLimit-r.MaxEraseCount) / rate
		if secs > 0 {
			const maxDur = float64(1<<62 - 1)
			ns := secs * 1e9
			if ns > maxDur {
				ns = maxDur
			}
			r.ProjectedLifetime = time.Duration(ns)
		}
	}
	return r
}

// Wear computes the wear report for a finished engine.
func (e *engine) wear(makespanNS int64) WearReport {
	var w wearTally
	for i := range e.ftl.planes {
		blocks := e.ftl.planes[i].blocks
		for b := range blocks {
			w.add(int64(blocks[b].eraseCount))
		}
	}
	return computeWear(w, peCycleLimit(e.p.FlashType), makespanNS)
}
