// Package ssdconf defines the tunable SSD configuration space AutoBlox
// searches: 52 device parameters (§3.2's continuous, discrete, boolean
// and categorical kinds), their commodity and what-if value grids, the
// user-visible constraints (capacity, host interface, flash type, power
// budget — the paper's set_cons interface), vectorization for the ML
// models, and the neighbor enumeration that drives the discrete SGD
// search of §3.4.
package ssdconf

import (
	"fmt"
	"math"

	"autoblox/internal/ssd"
)

// Kind classifies a parameter the way §3.2 does.
type Kind uint8

const (
	// Continuous parameters take a range discretized into N endpoints
	// (data cache size, CMT size, over-provisioning, ...).
	Continuous Kind = iota
	// Discrete parameters take an explicit value list (channel counts,
	// PCIe widths, ...).
	Discrete
	// Boolean parameters enable/disable a feature.
	Boolean
	// Categorical parameters one-hot encode an unordered choice (plane
	// allocation scheme, cache policy).
	Categorical
)

func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Discrete:
		return "discrete"
	case Boolean:
		return "boolean"
	default:
		return "categorical"
	}
}

// Param is one tunable (or constrained) device parameter.
type Param struct {
	Name   string
	Kind   Kind
	Values []float64 // the grid; booleans use {0,1}; categoricals use 0..n-1
	Labels []string  // for categoricals, one label per value
	// Tunable marks parameters the search may move. Non-tunable
	// parameters (host interface, flash type) are fixed by constraints.
	Tunable bool
	// Layout marks the six chip-layout counts plus page size: the
	// product of their grid values is the raw capacity the capacity
	// constraint binds.
	Layout bool

	// field is the device field the parameter sets, named by its device-
	// file key; its grid values are in the field's file units. nil for a
	// parameter with no device field.
	field *ssd.Field
}

// Stride is the grid-index step one SGD move takes on this parameter:
// 1 for small grids, len/16 for the fine what-if grids, so a "step"
// always moves the underlying value meaningfully.
func (p *Param) Stride() int {
	s := (len(p.Values) + 15) / 16
	if s < 1 {
		s = 1
	}
	return s
}

// Constraints is the user's set_cons(capacity, interface, flash_type,
// power_budget) tuple, plus the tolerance applied to the discrete
// capacity grid.
type Constraints struct {
	CapacityBytes     int64
	CapacityTolerance float64 // fraction, default 0.15
	Interface         ssd.Interface
	Flash             ssd.FlashType
	PowerBudgetWatts  float64 // 0 disables the power constraint
}

// DefaultConstraints reproduces the paper's §4.2 setting: 512GB NVMe MLC.
func DefaultConstraints() Constraints {
	return Constraints{
		CapacityBytes:     512 << 30,
		CapacityTolerance: 0.15,
		Interface:         ssd.NVMe,
		Flash:             ssd.MLC,
		PowerBudgetWatts:  0,
	}
}

// Space is the parameter space under a set of constraints.
type Space struct {
	Params []Param
	Cons   Constraints
	// Faults, when enabled, is stamped onto every device the space
	// materializes. It is environmental state, not a tunable dimension:
	// the 52 search parameters are unchanged, and the same seeded fault
	// stream applies to every candidate so measurements stay comparable.
	Faults ssd.FaultProfile
	// Objectives declares the tuning objective vector. The zero value is
	// scalar mode (historical single-grade search); any multi-axis spec
	// switches the tuner to Pareto-front search and is folded into the
	// space signature so mismatched fleets are rejected at handshake.
	Objectives ObjectiveSpec
	index      map[string]int
}

// Config assigns one grid index per parameter.
type Config []int

// Clone copies the configuration.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// latencyGrids returns read/program/erase microsecond grids per flash
// type; what-if widens them (Table 7 tunes device read latency 41–83µs
// and program latency 583–1166µs for MLC).
func latencyGrids(t ssd.FlashType, whatIf bool) (read, prog, erase []float64) {
	switch t {
	case ssd.SLC:
		read, prog, erase = []float64{3, 5, 8, 12, 18, 25}, []float64{100, 150, 200, 300}, []float64{800, 1000, 1500, 2000}
	case ssd.MLC:
		read, prog, erase = []float64{41, 50, 60, 70, 83, 100}, []float64{583, 700, 900, 1000, 1166, 1400}, []float64{1500, 2000, 3000, 3800}
	default:
		read, prog, erase = []float64{70, 90, 110, 140}, []float64{1800, 2200, 2500, 3000}, []float64{3500, 4500, 5500}
	}
	if whatIf && t == ssd.MLC {
		read = rangeGrid(41, 83, 43)
		prog = rangeGrid(583, 1166, 584)
	}
	return read, prog, erase
}

// rangeGrid divides [lo, hi] uniformly into n endpoints.
func rangeGrid(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// NewSpace builds the commodity parameter space for the constraints.
func NewSpace(cons Constraints) *Space { return newSpace(cons, false) }

// NewWhatIfSpace builds the expanded space of §4.5 (Table 7): wider
// layout bounds, finer DRAM grids and tunable flash timings, for design
// exploration beyond today's commodity parts.
func NewWhatIfSpace(cons Constraints) *Space { return newSpace(cons, true) }

func newSpace(cons Constraints, whatIf bool) *Space {
	if cons.CapacityTolerance <= 0 {
		cons.CapacityTolerance = 0.15
	}
	read, prog, erase := latencyGrids(cons.Flash, whatIf)

	channels := []float64{1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 32}
	chips := []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
	dataCache := rangeGrid(64, 1024, 31) // 32MB steps: covers 800MB (Intel 750) and Table 5's values
	cmt := rangeGrid(32, 640, 20)        // 32MB steps
	rate := []float64{67, 100, 133, 166, 200, 266, 333, 400, 533, 667, 800, 1066, 1200}
	// Commodity form factors (M.2/U.2/AIC) cap the host link at x8;
	// wider links are a what-if exploration.
	pcieLanes := []float64{1, 2, 4, 8}
	if whatIf {
		pcieLanes = []float64{1, 2, 4, 8, 16}
		channels = rangeGrid(1, 64, 64)
		chips = rangeGrid(1, 64, 64)
		dataCache = rangeGrid(64, 2048, 63)
		cmt = rangeGrid(64, 2048, 63)
	}

	params := []Param{
		// --- Chip layout (6) + page size.
		{Name: "FlashChannelCount", Kind: Discrete, Tunable: true, Layout: true, Values: channels,
			field: ssd.FieldOf("channels")},
		{Name: "ChipNoPerChannel", Kind: Discrete, Tunable: true, Layout: true, Values: chips,
			field: ssd.FieldOf("chips_per_channel")},
		{Name: "DieNoPerChip", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{1, 2, 4, 8},
			field: ssd.FieldOf("dies_per_chip")},
		{Name: "PlaneNoPerDie", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{1, 2, 3, 4, 8, 16},
			field: ssd.FieldOf("planes_per_die")},
		{Name: "BlockNoPerPlane", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{128, 256, 512, 1024, 2048},
			field: ssd.FieldOf("blocks_per_plane")},
		{Name: "PageNoPerBlock", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{64, 128, 256, 384, 512, 768, 1024},
			field: ssd.FieldOf("pages_per_block")},
		{Name: "PageCapacity", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{2048, 4096, 8192, 16384},
			field: ssd.FieldOf("page_size_bytes")},

		// --- DRAM (continuous in the paper's sense).
		{Name: "DataCacheSize", Kind: Continuous, Tunable: true, Values: dataCache,
			field: ssd.FieldOf("data_cache_mb")},
		{Name: "CMTCapacity", Kind: Continuous, Tunable: true, Values: cmt,
			field: ssd.FieldOf("cmt_mb")},

		// --- Channel and flash timing.
		{Name: "ChannelWidth", Kind: Discrete, Tunable: whatIf, Values: []float64{8, 16, 32},
			field: ssd.FieldOf("channel_width_bit")},
		{Name: "ChannelTransferRate", Kind: Discrete, Tunable: whatIf, Values: rate,
			field: ssd.FieldOf("channel_mtps")},
		{Name: "PageReadLatency", Kind: Discrete, Tunable: whatIf, Values: read,
			field: ssd.FieldOf("read_latency_us")},
		{Name: "PageProgramLatency", Kind: Discrete, Tunable: whatIf, Values: prog,
			field: ssd.FieldOf("program_latency_us")},
		{Name: "BlockEraseLatency", Kind: Discrete, Tunable: whatIf, Values: erase,
			field: ssd.FieldOf("erase_latency_us")},
		{Name: "SuspendProgramTime", Kind: Discrete, Tunable: true, Values: []float64{10, 25, 50, 100},
			field: ssd.FieldOf("suspend_program_us")},
		{Name: "SuspendEraseTime", Kind: Discrete, Tunable: true, Values: []float64{25, 50, 100, 200},
			field: ssd.FieldOf("suspend_erase_us")},

		// --- Host interface.
		{Name: "QueueDepth", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 4, 8, 16, 32, 64, 128, 256},
			field: ssd.FieldOf("queue_depth")},
		{Name: "QueueCount", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 4, 8, 16},
			field: ssd.FieldOf("queue_count")},
		{Name: "PCIeLanes", Kind: Discrete, Tunable: true, Values: pcieLanes,
			field: ssd.FieldOf("pcie_lanes")},
		{Name: "PCIeLaneBandwidth", Kind: Discrete, Tunable: whatIf, Values: []float64{250, 500, 985, 1969},
			field: ssd.FieldOf("pcie_lane_mbps")},

		// --- FTL and policies.
		{Name: "OverprovisioningRatio", Kind: Continuous, Tunable: true, Values: []float64{0.03, 0.05, 0.07, 0.10, 0.15, 0.20, 0.28},
			field: ssd.FieldOf("overprovision_ratio")},
		{Name: "GCThreshold", Kind: Continuous, Tunable: true, Values: []float64{2, 5, 10, 15, 20},
			field: ssd.FieldOf("gc_threshold_pct")},
		{Name: "StaticWearlevelingThreshold", Kind: Discrete, Tunable: true, Values: []float64{25, 50, 100, 200, 400},
			field: ssd.FieldOf("wear_leveling_threshold")},
		{Name: "PageMetadataCapacity", Kind: Discrete, Tunable: true, Values: []float64{128, 224, 448, 896},
			field: ssd.FieldOf("page_metadata_bytes")},
		{Name: "ZoneSize", Kind: Discrete, Tunable: true, Values: []float64{64, 128, 256, 512, 1024},
			field: ssd.FieldOf("zone_size_mb")},
		{Name: "MaxOpenZones", Kind: Discrete, Tunable: true, Values: []float64{2, 4, 8, 16, 32},
			field: ssd.FieldOf("max_open_zones")},
		{Name: "WriteStreams", Kind: Discrete, Tunable: true, Values: []float64{2, 4, 8, 16},
			field: ssd.FieldOf("write_streams")},
		{Name: "BadBlockRatio", Kind: Continuous, Tunable: true, Values: []float64{0.1, 0.5, 1, 2},
			field: ssd.FieldOf("bad_block_pct")},
		{Name: "ReadRetryLimit", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 3, 5, 8},
			field: ssd.FieldOf("read_retry_limit")},
		{Name: "CacheLineSize", Kind: Discrete, Tunable: true, Values: []float64{4, 8, 16, 32},
			field: ssd.FieldOf("cache_line_kb")},
		{Name: "CMTEntrySize", Kind: Discrete, Tunable: true, Values: []float64{4, 8, 16},
			field: ssd.FieldOf("cmt_entry_bytes")},
		{Name: "MappingGranularity", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 4, 8},
			field: ssd.FieldOf("mapping_granularity")},
		{Name: "WriteBufferFlushThreshold", Kind: Continuous, Tunable: true, Values: []float64{50, 60, 70, 80, 90},
			field: ssd.FieldOf("write_buffer_flush_pct")},
		{Name: "ControllerClock", Kind: Discrete, Tunable: true, Values: []float64{200, 300, 400, 500, 667, 800},
			field: ssd.FieldOf("controller_mhz")},
		{Name: "DRAMFrequency", Kind: Discrete, Tunable: true, Values: []float64{400, 533, 667, 800, 1066, 1200},
			field: ssd.FieldOf("dram_mhz")},
		{Name: "DRAMBusWidth", Kind: Discrete, Tunable: true, Values: []float64{16, 32, 64},
			field: ssd.FieldOf("dram_bus_bits")},
		{Name: "ECCLatency", Kind: Discrete, Tunable: whatIf, Values: []float64{2, 4, 8, 16},
			field: ssd.FieldOf("ecc_latency_us")},
		{Name: "FirmwareOverhead", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 3, 5, 8},
			field: ssd.FieldOf("firmware_overhead_us")},

		// --- Booleans.
		boolParam("StaticWearleveling", "static_wear_leveling"),
		boolParam("DynamicWearleveling", "dynamic_wear_leveling"),
		boolParam("CopybackEnabled", "copyback_enabled"),
		boolParam("SuspendEnabled", "suspend_enabled"),
		boolParam("ReadCacheEnabled", "read_cache_enabled"),
		boolParam("IOMergingEnabled", "io_merging_enabled"),
		boolParam("TransactionSchedOOO", "transaction_sched_ooo"),
		// No device field: the simulator models no compression, so
		// ToDevice ignores this parameter and FromDevice leaves it at 0.
		{Name: "CompressionEnabled", Kind: Boolean, Tunable: true, Values: []float64{0, 1}},

		// --- Categoricals. Grid values and labels derive from the policy
		// registry in internal/ssd, so a policy added there shows up here
		// (and in CLI help, JSON, and the tuner) without further edits.
		catParam("PlaneAllocationScheme", true, "plane_alloc_scheme"),
		catParam("CachePolicy", true, "cache_policy"),
		catParam("GCPolicy", true, "gc_policy"),
		catParam("HostInterfaceModel", true, "host_ifc"),

		// --- Constrained (non-tunable) categoricals.
		catParam("Interface", false, "interface"),
		catParam("FlashType", false, "flash_type"),
	}

	s := &Space{Params: params, Cons: cons, index: make(map[string]int, len(params))}
	for i, p := range s.Params {
		s.index[p.Name] = i
	}
	return s
}

func boolParam(name, key string) Param {
	return Param{Name: name, Kind: Boolean, Tunable: true, Values: []float64{0, 1}, field: ssd.FieldOf(key)}
}

// catParam builds a categorical parameter on a registry enum field: its
// grid indices are the registry wire values 0..n-1 and its labels are
// the field's registry names.
func catParam(name string, tunable bool, key string) Param {
	field := ssd.FieldOf(key)
	values := make([]float64, len(field.Labels()))
	for i := range values {
		values[i] = float64(i)
	}
	return Param{Name: name, Kind: Categorical, Tunable: tunable, Values: values, Labels: field.Labels(), field: field}
}

// NumParams returns the parameter count (52).
func (s *Space) NumParams() int { return len(s.Params) }

// ParamIndex returns the index of a named parameter.
func (s *Space) ParamIndex(name string) (int, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("ssdconf: unknown parameter %q", name)
	}
	return i, nil
}

// Value returns the concrete value cfg selects for parameter i.
func (s *Space) Value(cfg Config, i int) float64 { return s.Params[i].Values[cfg[i]] }

// ValueByName returns the concrete value of a named parameter.
func (s *Space) ValueByName(cfg Config, name string) (float64, error) {
	i, err := s.ParamIndex(name)
	if err != nil {
		return 0, err
	}
	return s.Value(cfg, i), nil
}

// SetByName moves cfg's grid index for name to the closest grid point to
// value.
func (s *Space) SetByName(cfg Config, name string, value float64) error {
	i, err := s.ParamIndex(name)
	if err != nil {
		return err
	}
	cfg[i] = nearestIndex(s.Params[i].Values, value)
	return nil
}

// SearchSpaceSize returns the product of all tunable grid sizes.
func (s *Space) SearchSpaceSize() float64 {
	size := 1.0
	for _, p := range s.Params {
		if p.Tunable {
			size *= float64(len(p.Values))
		}
	}
	return size
}

// FromDevice snaps a concrete device to the nearest grid configuration.
// A parameter with no device field takes grid index 0.
func (s *Space) FromDevice(d ssd.DeviceParams) Config {
	cfg := make(Config, len(s.Params))
	for i, p := range s.Params {
		if p.field != nil {
			cfg[i] = nearestIndex(p.Values, p.field.Get(&d))
		}
	}
	// Constrained parameters always follow the constraints.
	s.ApplyConstraints(cfg)
	return cfg
}

// ToDevice materializes a simulator configuration from cfg. Fields not
// covered by the space (e.g. InitialOccupancyFrac) keep defaults.
func (s *Space) ToDevice(cfg Config) ssd.DeviceParams {
	d := ssd.DefaultParams()
	for i, p := range s.Params {
		if p.field != nil {
			p.field.Set(&d, p.Values[cfg[i]])
		}
	}
	d.Faults = s.Faults
	return d
}

// ApplyConstraints sets cfg's constrained parameters (host interface and
// flash type) to the constraint tuple's values.
func (s *Space) ApplyConstraints(cfg Config) {
	if i, ok := s.index["Interface"]; ok {
		cfg[i] = int(s.Cons.Interface)
	}
	if i, ok := s.index["FlashType"]; ok {
		cfg[i] = int(s.Cons.Flash)
	}
}

func nearestIndex(grid []float64, v float64) int {
	best, bestD := 0, math.Inf(1)
	for i, g := range grid {
		if d := math.Abs(g - v); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
