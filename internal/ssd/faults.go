package ssd

import "errors"

// Fault injection. Real flash fails: programs abort, erases wear out,
// reads need retry ladders, whole dies go dark. The model here follows
// the device-level fault handling every production FTL implements —
// bad-block retirement with remapping, stepped read-retry with an ECC
// soft-decode fallback, and die failure with plane remapping — driven by
// one seeded counter-based RNG so fault-injected runs are bit-for-bit
// reproducible and independent of host-side parallelism. Faults degrade
// the device gracefully: retired blocks shrink the effective
// over-provisioning until, in the limit, a plane runs out of erase
// units and the run ends with ErrOutOfSpace instead of a panic.

// ErrOutOfSpace is the sticky fatal error raised when a plane has no
// free block left even after emergency garbage collection — either the
// configured over-provisioning is too small, or fault-driven block
// retirement consumed it. It is surfaced through the Run/RunSource
// error return, never as a panic.
var ErrOutOfSpace = errors.New("ssd: plane out of free blocks after GC (over-provisioning exhausted)")

// FaultProfile configures seeded fault injection. The zero value (and
// any profile with Rate == 0 and DieFailures == 0) disables injection
// entirely; disabled runs are bit-identical to builds without the
// fault model.
type FaultProfile struct {
	// Rate is the per-operation failure probability applied to page
	// programs, block erases and the first read-retry trigger.
	// 0 disables fault injection; values above 0.5 are rejected.
	Rate float64
	// Seed derives the private fault RNG stream. Two runs with equal
	// params, trace and Seed inject identical faults.
	Seed int64
	// DieFailures fails this many whole dies at initialization; their
	// planes are remapped onto the surviving dies.
	DieFailures int
}

// Enabled reports whether the profile injects any faults.
func (f FaultProfile) Enabled() bool { return f.Rate > 0 || f.DieFailures > 0 }

// faultRNG is a splitmix64 counter RNG: tiny, seedable, and sequence-
// stable (each draw advances the state by a fixed increment), which is
// exactly what deterministic replay across checkpoint/resume and
// parallel validation needs.
type faultRNG struct{ state uint64 }

func newFaultRNG(seed int64) *faultRNG {
	return &faultRNG{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

func (r *faultRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *faultRNG) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// retireFailLimit is the cumulative program-failure budget of a block:
// once exceeded, the block is retired at its next erase (bad-block
// management's grown-defect path).
const retireFailLimit = 3

// eccSoftDecodeMult is the latency multiplier of an ECC soft-decode
// (LDPC soft-decision) pass relative to the hard-decode ECCLatency,
// charged when the read-retry ladder is exhausted.
const eccSoftDecodeMult = 8

// faultState is the per-FTL fault-injection state: the seeded RNG, the
// die-failure remap table, and the retirement gauges exported through
// Result and the obs registry.
type faultState struct {
	rate float64
	rng  *faultRNG

	// deadPlane marks planes of failed dies; redirect maps every plane
	// to itself (alive) or to the next surviving plane (dead). Nil when
	// no die failed.
	deadPlane []bool
	redirect  []planeID

	// Device-state gauges: unlike the op counters in c, they persist
	// across the warm-up boundary.
	retiredBlocks    int64
	factoryBadBlocks int64

	c *Counters // the engine's op counters
}

func newFaultState(p *DeviceParams, c *Counters) *faultState {
	return &faultState{rate: p.Faults.Rate, rng: newFaultRNG(p.Faults.Seed), c: c}
}

// programFails draws one program-failure event.
func (s *faultState) programFails() bool {
	return s.rate > 0 && s.rng.float64() < s.rate
}

// retireAtErase decides, at erase time, whether the block is retired:
// either its grown-defect budget is exhausted or the erase itself
// fails.
func (s *faultState) retireAtErase(b *flashBlock) bool {
	if b.failCount > retireFailLimit {
		return true
	}
	if s.rate > 0 && s.rng.float64() < s.rate {
		s.c.EraseFailures++
		return true
	}
	return false
}

// readRetrySteps draws the number of read-retry steps a page read
// needs: usually 0, otherwise a geometric ladder capped at limit.
// Returning limit means the ladder was exhausted and the controller
// falls back to ECC soft-decode.
func (s *faultState) readRetrySteps(limit int) int {
	if s.rate <= 0 || s.rng.float64() >= s.rate {
		return 0
	}
	if limit < 1 {
		limit = 1
	}
	steps := 1
	for steps < limit && s.rng.float64() < 0.5 {
		steps++
	}
	return steps
}

// redirectPlane remaps pl onto a surviving plane when its die failed.
func (f *ftl) redirectPlane(pl planeID) planeID {
	if f.faults != nil && f.faults.redirect != nil {
		return f.faults.redirect[pl]
	}
	return pl
}
