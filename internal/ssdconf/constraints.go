package ssdconf

import (
	"fmt"
	"math"
)

// CapacityBytes returns the raw capacity cfg encodes: the product of
// its Layout parameters' grid values.
func (s *Space) CapacityBytes(cfg Config) int64 {
	c := int64(1)
	for i, p := range s.Params {
		if p.Layout {
			c *= int64(p.Values[cfg[i]])
		}
	}
	return c
}

// CapacityOK reports whether cfg's capacity is within the constraint's
// tolerance band.
func (s *Space) CapacityOK(cfg Config) bool {
	if s.Cons.CapacityBytes <= 0 {
		return true
	}
	c := float64(s.CapacityBytes(cfg))
	target := float64(s.Cons.CapacityBytes)
	tol := s.Cons.CapacityTolerance
	return c >= target*(1-tol) && c <= target*(1+tol)
}

// CheckConstraints reports the first violated structural constraint
// (capacity, interface, flash type). Power is checked post-validation by
// the tuner, since it needs a simulation.
func (s *Space) CheckConstraints(cfg Config) error {
	if len(cfg) != len(s.Params) {
		return fmt.Errorf("ssdconf: config has %d entries, space has %d", len(cfg), len(s.Params))
	}
	for i, p := range s.Params {
		if cfg[i] < 0 || cfg[i] >= len(p.Values) {
			return fmt.Errorf("ssdconf: %s index %d out of range [0,%d)", p.Name, cfg[i], len(p.Values))
		}
	}
	if i, ok := s.index["Interface"]; ok && cfg[i] != int(s.Cons.Interface) {
		return fmt.Errorf("ssdconf: interface %s violates constraint %s", s.Params[i].Labels[cfg[i]], s.Cons.Interface)
	}
	if i, ok := s.index["FlashType"]; ok && cfg[i] != int(s.Cons.Flash) {
		return fmt.Errorf("ssdconf: flash type %s violates constraint %s", s.Params[i].Labels[cfg[i]], s.Cons.Flash)
	}
	if !s.CapacityOK(cfg) {
		return fmt.Errorf("ssdconf: capacity %.1f GB violates constraint %.1f GB ±%.0f%%",
			float64(s.CapacityBytes(cfg))/(1<<30), float64(s.Cons.CapacityBytes)/(1<<30),
			s.Cons.CapacityTolerance*100)
	}
	return nil
}

// RepairCapacity adjusts the *dependent* layout parameters
// (BlockNoPerPlane, then PageNoPerBlock, then PageCapacity) to bring the
// configuration back inside the capacity band after a tuning step moved
// one of the independent layout axes. This implements the paper's §3.4
// step "AutoBlox will adjust the values of other parameters" to satisfy
// the capacity constraint. It reports whether a repair succeeded; cfg is
// modified in place only on success.
func (s *Space) RepairCapacity(cfg Config) bool {
	if s.CapacityOK(cfg) {
		return true
	}
	dependent := []string{"BlockNoPerPlane", "PageNoPerBlock", "PageCapacity"}
	work := cfg.Clone()

	// Coordinate descent: move each dependent axis to the grid point
	// minimizing |log(capacity/target)|, repeating until stable.
	for pass := 0; pass < 3; pass++ {
		changed := false
		for _, name := range dependent {
			i, err := s.ParamIndex(name)
			if err != nil {
				continue
			}
			bestIdx, bestErr := work[i], math.Inf(1)
			for idx := range s.Params[i].Values {
				work[i] = idx
				e := math.Abs(math.Log(float64(s.CapacityBytes(work)) / float64(s.Cons.CapacityBytes)))
				if e < bestErr {
					bestIdx, bestErr = idx, e
				}
			}
			if work[i] != bestIdx {
				changed = true
			}
			work[i] = bestIdx
		}
		if s.CapacityOK(work) {
			copy(cfg, work)
			return true
		}
		if !changed {
			break
		}
	}
	return false
}

// Neighbors enumerates all constraint-respecting configurations one grid
// step away from cfg along tunable axes (the paper's "adjacent
// configurations" in the SGD search): NeighborsOf over every axis, in
// parameter order.
func (s *Space) Neighbors(cfg Config) []Config {
	var out []Config
	for i := range s.Params {
		out = append(out, s.NeighborsOf(cfg, i)...)
	}
	return out
}

// clampIndex clips a grid index to [0, n).
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// NeighborsOf enumerates the constraint-respecting configurations one
// grid step away from cfg along one tunable axis. Layout moves that
// break the capacity band are repaired via RepairCapacity; unrepairable
// moves are skipped. A categorical axis enumerates every alternative
// value (unordered domain).
func (s *Space) NeighborsOf(cfg Config, param int) []Config {
	p := s.Params[param]
	if !p.Tunable || len(p.Values) < 2 {
		return nil
	}
	var out []Config
	add := func(c Config) {
		if s.CheckConstraints(c) == nil {
			out = append(out, c)
		}
	}
	if p.Kind == Categorical {
		for v := range p.Values {
			if v == cfg[param] {
				continue
			}
			c := cfg.Clone()
			c[param] = v
			add(c)
		}
		return out
	}
	stride := p.Stride()
	for _, step := range []int{-stride, +stride} {
		ni := clampIndex(cfg[param]+step, len(p.Values))
		if ni == cfg[param] {
			continue
		}
		c := cfg.Clone()
		c[param] = ni
		if p.Layout && !s.CapacityOK(c) {
			if !s.RepairCapacity(c) {
				continue
			}
			if c[param] != ni {
				continue // repair undid the move
			}
		}
		add(c)
	}
	return out
}

// Vector encodes cfg for the ML models: numeric/boolean parameters map
// to their normalized grid position in [0, 1]; categorical parameters
// expand to one-hot dummy variables (§3.2).
func (s *Space) Vector(cfg Config) []float64 {
	n := 0
	for _, p := range s.Params {
		if p.Kind == Categorical {
			n += len(p.Values)
		} else {
			n++
		}
	}
	out := make([]float64, n)
	j := 0
	for i, p := range s.Params {
		if p.Kind == Categorical {
			out[j+cfg[i]] = 1
			j += len(p.Values)
			continue
		}
		if denom := float64(len(p.Values) - 1); denom != 0 {
			out[j] = float64(cfg[i]) / denom
		}
		j++
	}
	return out
}

// ManhattanDistance is the exploration-bound metric of §3.4: the sum of
// grid-index distances over numeric axes, counting a categorical
// difference as one step.
func ManhattanDistance(s *Space, a, b Config) int {
	d := 0
	for i, p := range s.Params {
		if p.Kind == Categorical {
			if a[i] != b[i] {
				d++
			}
			continue
		}
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		// Count in stride units so one SGD move is one unit of distance
		// on coarse and fine grids alike.
		stride := p.Stride()
		d += (diff + stride - 1) / stride
	}
	return d
}

// Equal reports whether two configurations are identical.
func Equal(a, b Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Key returns a compact stable string key for cfg (AutoDB storage and
// dedup in the search loop).
func (c Config) Key() string {
	b := make([]byte, 0, len(c)*3)
	for _, v := range c {
		b = append(b, byte('a'+v/26), byte('a'+v%26), '.')
	}
	return string(b)
}
