package ssd

import "fmt"

// AllocScheme selects the plane-allocation (page striping) order — the
// priority in which the Channel (C), Way/chip (W), Die (D) and Plane (P)
// coordinates advance as consecutive pages are written. §3.2 of the
// paper models the scheme as a 16-way categorical parameter; we expose
// the 16 orderings whose first axis is Channel or Way (striping that
// starts at a die or plane within a single chip serializes the bus and is
// never selected in practice, matching the paper's 16-value list).
type AllocScheme uint8

// The 16 plane-allocation schemes. The name lists the axis priority,
// fastest-varying first.
const (
	AllocCWDP AllocScheme = iota
	AllocCWPD
	AllocCDWP
	AllocCDPW
	AllocCPWD
	AllocCPDW
	AllocWCDP
	AllocWCPD
	AllocWDCP
	AllocWDPC
	AllocWPCD
	AllocWPDC
	AllocCW // degenerate 2-axis orders: remaining axes in natural order
	AllocWC
	AllocCD
	AllocCP

	// NumAllocSchemes is the size of the categorical domain.
	NumAllocSchemes = 16
)

// allocSchemeTable is the single source of truth for the plane
// allocation domain: row order defines the wire value, and each row
// carries the axis priority its ordered allocator stripes with
// (0=Channel, 1=Way/chip, 2=Die, 3=Plane; fastest-varying first).
var allocSchemeTable = [NumAllocSchemes]struct {
	name  string
	order [4]int
}{
	AllocCWDP: {"CWDP", [4]int{0, 1, 2, 3}},
	AllocCWPD: {"CWPD", [4]int{0, 1, 3, 2}},
	AllocCDWP: {"CDWP", [4]int{0, 2, 1, 3}},
	AllocCDPW: {"CDPW", [4]int{0, 2, 3, 1}},
	AllocCPWD: {"CPWD", [4]int{0, 3, 1, 2}},
	AllocCPDW: {"CPDW", [4]int{0, 3, 2, 1}},
	AllocWCDP: {"WCDP", [4]int{1, 0, 2, 3}},
	AllocWCPD: {"WCPD", [4]int{1, 0, 3, 2}},
	AllocWDCP: {"WDCP", [4]int{1, 2, 0, 3}},
	AllocWDPC: {"WDPC", [4]int{1, 2, 3, 0}},
	AllocWPCD: {"WPCD", [4]int{1, 3, 0, 2}},
	AllocWPDC: {"WPDC", [4]int{1, 3, 2, 0}},
	AllocCW:   {"CW", [4]int{0, 1, 2, 3}}, // same expansion as CWDP
	AllocWC:   {"WC", [4]int{1, 0, 2, 3}},
	AllocCD:   {"CD", [4]int{0, 2, 1, 3}},
	AllocCP:   {"CP", [4]int{0, 3, 1, 2}},
}

var allocSchemes = func() *policyDomain {
	names := make([]string, len(allocSchemeTable))
	docs := make([]string, len(allocSchemeTable))
	for i, e := range allocSchemeTable {
		names[i] = e.name
	}
	return newPolicyDomain("plane allocation scheme", names, docs)
}()

func (a AllocScheme) valid() bool { return allocSchemes.valid(uint8(a)) }

// String returns the scheme's axis mnemonic.
func (a AllocScheme) String() string {
	if !a.valid() {
		return fmt.Sprintf("AllocScheme(%d)", uint8(a))
	}
	return allocSchemes.name(uint8(a))
}

// ParseAllocScheme resolves a mnemonic like "CWDP".
func ParseAllocScheme(s string) (AllocScheme, error) {
	v, err := allocSchemes.parse(s)
	return AllocScheme(v), err
}

// planeID flattens a (channel, chip, die, plane) coordinate.
type planeID int32

// allocator converts a monotonically increasing write-stripe counter into
// plane coordinates following the scheme's axis priority; every
// registered scheme is one such ordered-stride allocator.
type allocator struct {
	order [4]int
	dims  [4]int // channel, chip, die, plane counts
	// strides in counter space per axis, derived from order.
	strides [4]int
	total   int
}

// newAllocator instantiates the device's configured scheme; the caller
// validates p first.
func newAllocator(p *DeviceParams) *allocator {
	a := &allocator{
		order: allocSchemeTable[p.PlaneAllocScheme].order,
		dims:  [4]int{p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie},
	}
	stride := 1
	for _, axis := range a.order {
		a.strides[axis] = stride
		stride *= a.dims[axis]
	}
	a.total = stride
	return a
}

// locate maps a stripe counter to (channel, chip, die, plane).
func (a *allocator) locate(counter uint64) (ch, chip, die, plane int) {
	c := int(counter % uint64(a.total))
	coord := [4]int{
		(c / a.strides[0]) % a.dims[0],
		(c / a.strides[1]) % a.dims[1],
		(c / a.strides[2]) % a.dims[2],
		(c / a.strides[3]) % a.dims[3],
	}
	return coord[0], coord[1], coord[2], coord[3]
}

// planeIndex flattens coordinates into a dense plane index.
func (a *allocator) planeIndex(ch, chip, die, plane int) planeID {
	return planeID(((ch*a.dims[1]+chip)*a.dims[2]+die)*a.dims[3] + plane)
}

// channelOf recovers the channel from a dense plane index.
func (a *allocator) channelOf(p planeID) int {
	return int(p) / (a.dims[1] * a.dims[2] * a.dims[3])
}
