package ssd

// GCPolicy selects the victim-block (garbage collection) policy.
type GCPolicy uint8

const (
	// GCGreedy picks the block with the fewest valid pages.
	GCGreedy GCPolicy = iota
	// GCFIFO erases blocks in allocation order.
	GCFIFO
	// GCCostBenefit weighs reclaimable space against copy cost and
	// block age (the classic LFS/eNVy cost-benefit cleaner), discounted
	// by wear so heavily erased blocks are spared.
	GCCostBenefit
)

// gcVictimPolicy selects a GC victim block on one plane, or -1 when no
// block qualifies. Implementations must be deterministic: equal scores
// resolve to the lowest block index (or, for greedy with dynamic wear
// leveling, the documented erase-count tie-break). An open write block
// is never a victim; the scans ask flashPlane.isActive only of a block
// that would become the best so far, since skipping an active block
// there leaves the same choice as skipping it up front.
type gcVictimPolicy interface {
	pickVictim(f *ftl, fp *flashPlane) int32
}

// gcPolicyTable is the single source of truth for the GC victim
// domain: row order defines the wire value. To add a policy, append a
// row here and implement its type below — validation, JSON, the config
// space and the CLI pick it up from the registry.
var gcPolicyTable = []policyEntry[gcVictimPolicy]{
	GCGreedy:      {name: "greedy", doc: "fewest valid pages first", make: func(*DeviceParams) gcVictimPolicy { return greedyVictim{} }},
	GCFIFO:        {name: "fifo", doc: "oldest allocated block first", make: func(*DeviceParams) gcVictimPolicy { return fifoVictim{} }},
	GCCostBenefit: {name: "costbenefit", doc: "age-weighted benefit/cost, wear-aware", make: func(*DeviceParams) gcVictimPolicy { return costBenefitVictim{} }},
}

var gcPolicies = domainOf("gc policy", gcPolicyTable)

// String returns the policy's registry name.
func (g GCPolicy) String() string { return gcPolicies.name(uint8(g)) }

// ParseGCPolicy resolves a registry name like "greedy".
func ParseGCPolicy(s string) (GCPolicy, error) {
	v, err := gcPolicies.parse(s)
	return GCPolicy(v), err
}

// newGCVictimPolicy instantiates the device's configured policy; the
// caller validates p first.
func newGCVictimPolicy(p *DeviceParams) gcVictimPolicy {
	return gcPolicyTable[p.GCPolicy].make(p)
}

// greedyVictim implements GCGreedy: minimum valid pages wins.
type greedyVictim struct{}

func (greedyVictim) pickVictim(f *ftl, fp *flashPlane) int32 {
	best := int32(-1)
	var minValid int32 = 1<<31 - 1
	for i := range fp.blocks {
		b := &fp.blocks[i]
		if b.retired || !b.full(f.pagesPerBlock) {
			continue
		}
		better := b.valid < minValid
		// Dynamic wear leveling: among equally garbage-rich victims,
		// prefer the least-worn block so erase counts stay even.
		if f.p.DynamicWearLeveling && b.valid == minValid && best >= 0 &&
			b.eraseCount < fp.blocks[best].eraseCount {
			better = true
		}
		if better && !fp.isActive(int32(i)) {
			minValid = b.valid
			best = int32(i)
		}
	}
	// Refuse hopeless victims (everything still valid).
	if best >= 0 && fp.blocks[best].valid >= f.pagesPerBlock {
		return -1
	}
	return best
}

// fifoVictim implements GCFIFO: oldest allocation sequence wins.
type fifoVictim struct{}

func (fifoVictim) pickVictim(f *ftl, fp *flashPlane) int32 {
	best := int32(-1)
	var oldest int64 = 1<<63 - 1
	for i := range fp.blocks {
		b := &fp.blocks[i]
		if b.retired || !b.full(f.pagesPerBlock) {
			continue
		}
		if b.valid >= f.pagesPerBlock {
			continue // erasing a fully-valid block frees nothing
		}
		if b.allocSeq < oldest && !fp.isActive(int32(i)) {
			oldest = b.allocSeq
			best = int32(i)
		}
	}
	return best
}

// costBenefitVictim implements GCCostBenefit. Each candidate scores
// age · (1-u)/(1+u), where u is the block's valid-page ratio: (1-u) is
// the space an erase reclaims, (1+u) the erase-plus-copy cost of
// evacuating it, and age (plane allocation sequence distance) rewards
// blocks whose surviving pages have proven cold — the segment-cleaning
// rule of LFS/eNVy. The score is then divided by (1 + erase/PE-limit)
// so nearly worn-out blocks lose ties, folding wear awareness into
// victim selection itself.
type costBenefitVictim struct{}

func (costBenefitVictim) pickVictim(f *ftl, fp *flashPlane) int32 {
	peLimit := float64(peCycleLimit(f.p.FlashType))
	ppb := float64(f.pagesPerBlock)
	best := int32(-1)
	bestScore := 0.0
	for i := range fp.blocks {
		b := &fp.blocks[i]
		if b.retired || !b.full(f.pagesPerBlock) {
			continue
		}
		if b.valid >= f.pagesPerBlock {
			continue // erasing a fully-valid block frees nothing
		}
		u := float64(b.valid) / ppb
		age := float64(fp.allocSeq-b.allocSeq) + 1
		score := age * (1 - u) / (1 + u)
		score /= 1 + float64(b.eraseCount)/peLimit
		if (best < 0 || score > bestScore) && !fp.isActive(int32(i)) {
			bestScore = score
			best = int32(i)
		}
	}
	return best
}
