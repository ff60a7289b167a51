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
	"time"

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
	Unit   string
	Values []float64 // the grid; booleans use {0,1}; categoricals use 0..n-1
	Labels []string  // for categoricals, one label per value
	// Tunable marks parameters the search may move. Non-tunable
	// parameters (host interface, flash type) are fixed by constraints.
	Tunable bool
	// Layout marks the six chip-layout counts plus page size: the
	// product of their grid values is the raw capacity the capacity
	// constraint binds.
	Layout bool

	field field // nil for a parameter with no device field
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
			field: plain(func(d *device) *int { return &d.Channels })},
		{Name: "ChipNoPerChannel", Kind: Discrete, Tunable: true, Layout: true, Values: chips,
			field: plain(func(d *device) *int { return &d.ChipsPerChannel })},
		{Name: "DieNoPerChip", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{1, 2, 4, 8},
			field: plain(func(d *device) *int { return &d.DiesPerChip })},
		{Name: "PlaneNoPerDie", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{1, 2, 3, 4, 8, 16},
			field: plain(func(d *device) *int { return &d.PlanesPerDie })},
		{Name: "BlockNoPerPlane", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{128, 256, 512, 1024, 2048},
			field: plain(func(d *device) *int { return &d.BlocksPerPlane })},
		{Name: "PageNoPerBlock", Kind: Discrete, Tunable: true, Layout: true, Values: []float64{64, 128, 256, 384, 512, 768, 1024},
			field: plain(func(d *device) *int { return &d.PagesPerBlock })},
		{Name: "PageCapacity", Kind: Discrete, Unit: "B", Tunable: true, Layout: true, Values: []float64{2048, 4096, 8192, 16384},
			field: plain(func(d *device) *int { return &d.PageSizeBytes })},

		// --- DRAM (continuous in the paper's sense).
		{Name: "DataCacheSize", Kind: Continuous, Unit: "MB", Tunable: true, Values: dataCache,
			field: shifted(20, func(d *device) *int64 { return &d.DataCacheBytes })},
		{Name: "CMTCapacity", Kind: Continuous, Unit: "MB", Tunable: true, Values: cmt,
			field: shifted(20, func(d *device) *int64 { return &d.CMTBytes })},

		// --- Channel and flash timing.
		{Name: "ChannelWidth", Kind: Discrete, Unit: "bit", Tunable: whatIf, Values: []float64{8, 16, 32},
			field: plain(func(d *device) *int { return &d.ChannelWidthBit })},
		{Name: "ChannelTransferRate", Kind: Discrete, Unit: "MT/s", Tunable: whatIf, Values: rate,
			field: plain(func(d *device) *float64 { return &d.ChannelMTps })},
		{Name: "PageReadLatency", Kind: Discrete, Unit: "us", Tunable: whatIf, Values: read,
			field: micros(func(d *device) *time.Duration { return &d.ReadLatency })},
		{Name: "PageProgramLatency", Kind: Discrete, Unit: "us", Tunable: whatIf, Values: prog,
			field: micros(func(d *device) *time.Duration { return &d.ProgramLatency })},
		{Name: "BlockEraseLatency", Kind: Discrete, Unit: "us", Tunable: whatIf, Values: erase,
			field: micros(func(d *device) *time.Duration { return &d.EraseLatency })},
		{Name: "SuspendProgramTime", Kind: Discrete, Unit: "us", Tunable: true, Values: []float64{10, 25, 50, 100},
			field: micros(func(d *device) *time.Duration { return &d.SuspendProgram })},
		{Name: "SuspendEraseTime", Kind: Discrete, Unit: "us", Tunable: true, Values: []float64{25, 50, 100, 200},
			field: micros(func(d *device) *time.Duration { return &d.SuspendErase })},

		// --- Host interface.
		{Name: "QueueDepth", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 4, 8, 16, 32, 64, 128, 256},
			field: plain(func(d *device) *int { return &d.QueueDepth })},
		{Name: "QueueCount", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 4, 8, 16},
			field: plain(func(d *device) *int { return &d.QueueCount })},
		{Name: "PCIeLanes", Kind: Discrete, Tunable: true, Values: pcieLanes,
			field: plain(func(d *device) *int { return &d.PCIeLanes })},
		{Name: "PCIeLaneBandwidth", Kind: Discrete, Unit: "MB/s", Tunable: whatIf, Values: []float64{250, 500, 985, 1969},
			field: plain(func(d *device) *float64 { return &d.PCIeLaneMBps })},

		// --- FTL and policies.
		{Name: "OverprovisioningRatio", Kind: Continuous, Tunable: true, Values: []float64{0.03, 0.05, 0.07, 0.10, 0.15, 0.20, 0.28},
			field: plain(func(d *device) *float64 { return &d.OverprovisionRatio })},
		{Name: "GCThreshold", Kind: Continuous, Unit: "%", Tunable: true, Values: []float64{2, 5, 10, 15, 20},
			field: plain(func(d *device) *float64 { return &d.GCThresholdPct })},
		{Name: "StaticWearlevelingThreshold", Kind: Discrete, Tunable: true, Values: []float64{25, 50, 100, 200, 400},
			field: plain(func(d *device) *int { return &d.WearLevelingThresh })},
		{Name: "PageMetadataCapacity", Kind: Discrete, Unit: "B", Tunable: true, Values: []float64{128, 224, 448, 896},
			field: plain(func(d *device) *int { return &d.PageMetadataBytes })},
		{Name: "ZoneSize", Kind: Discrete, Unit: "MB", Tunable: true, Values: []float64{64, 128, 256, 512, 1024},
			field: plain(func(d *device) *int { return &d.ZoneSizeMB })},
		{Name: "MaxOpenZones", Kind: Discrete, Tunable: true, Values: []float64{2, 4, 8, 16, 32},
			field: plain(func(d *device) *int { return &d.MaxOpenZones })},
		{Name: "WriteStreams", Kind: Discrete, Tunable: true, Values: []float64{2, 4, 8, 16},
			field: plain(func(d *device) *int { return &d.WriteStreams })},
		{Name: "BadBlockRatio", Kind: Continuous, Unit: "%", Tunable: true, Values: []float64{0.1, 0.5, 1, 2},
			field: plain(func(d *device) *float64 { return &d.BadBlockPct })},
		{Name: "ReadRetryLimit", Kind: Discrete, Tunable: true, Values: []float64{1, 2, 3, 5, 8},
			field: plain(func(d *device) *int { return &d.ReadRetryLimit })},
		{Name: "CacheLineSize", Kind: Discrete, Unit: "KB", Tunable: true, Values: []float64{4, 8, 16, 32},
			field: shifted(10, func(d *device) *int { return &d.CacheLineBytes })},
		{Name: "CMTEntrySize", Kind: Discrete, Unit: "B", Tunable: true, Values: []float64{4, 8, 16},
			field: plain(func(d *device) *int { return &d.CMTEntryBytes })},
		{Name: "MappingGranularity", Kind: Discrete, Unit: "pages", Tunable: true, Values: []float64{1, 2, 4, 8},
			field: plain(func(d *device) *int { return &d.MappingGranularity })},
		{Name: "WriteBufferFlushThreshold", Kind: Continuous, Unit: "%", Tunable: true, Values: []float64{50, 60, 70, 80, 90},
			field: plain(func(d *device) *float64 { return &d.WriteBufferFlushPct })},
		{Name: "ControllerClock", Kind: Discrete, Unit: "MHz", Tunable: true, Values: []float64{200, 300, 400, 500, 667, 800},
			field: plain(func(d *device) *int { return &d.ControllerMHz })},
		{Name: "DRAMFrequency", Kind: Discrete, Unit: "MHz", Tunable: true, Values: []float64{400, 533, 667, 800, 1066, 1200},
			field: plain(func(d *device) *int { return &d.DRAMMHz })},
		{Name: "DRAMBusWidth", Kind: Discrete, Unit: "bit", Tunable: true, Values: []float64{16, 32, 64},
			field: plain(func(d *device) *int { return &d.DRAMBusBits })},
		{Name: "ECCLatency", Kind: Discrete, Unit: "us", Tunable: whatIf, Values: []float64{2, 4, 8, 16},
			field: micros(func(d *device) *time.Duration { return &d.ECCLatency })},
		{Name: "FirmwareOverhead", Kind: Discrete, Unit: "us", Tunable: true, Values: []float64{1, 2, 3, 5, 8},
			field: micros(func(d *device) *time.Duration { return &d.FirmwareOverhead })},

		// --- Booleans.
		boolParam("StaticWearleveling", func(d *device) *bool { return &d.StaticWearLeveling }),
		boolParam("DynamicWearleveling", func(d *device) *bool { return &d.DynamicWearLeveling }),
		boolParam("CopybackEnabled", func(d *device) *bool { return &d.CopybackEnabled }),
		boolParam("SuspendEnabled", func(d *device) *bool { return &d.SuspendEnabled }),
		boolParam("ReadCacheEnabled", func(d *device) *bool { return &d.ReadCacheEnabled }),
		boolParam("IOMergingEnabled", func(d *device) *bool { return &d.IOMergingEnabled }),
		boolParam("TransactionSchedOOO", func(d *device) *bool { return &d.TransactionSchedOOO }),
		// No device field: the simulator models no compression, so
		// ToDevice ignores this parameter and FromDevice leaves it at 0.
		{Name: "CompressionEnabled", Kind: Boolean, Tunable: true, Values: []float64{0, 1}},

		// --- Categoricals. Grid values and labels derive from the policy
		// registry in internal/ssd, so a policy added there shows up here
		// (and in CLI help, JSON, and the tuner) without further edits.
		catParam("PlaneAllocationScheme", ssd.AllocSchemeNames(), true,
			func(d *device) *ssd.AllocScheme { return &d.PlaneAllocScheme }),
		catParam("CachePolicy", ssd.CachePolicyNames(), true,
			func(d *device) *ssd.CachePolicy { return &d.CachePolicy }),
		catParam("GCPolicy", ssd.GCPolicyNames(), true,
			func(d *device) *ssd.GCPolicy { return &d.GCPolicy }),
		catParam("HostInterfaceModel", ssd.HostIfcNames(), true,
			func(d *device) *ssd.HostIfc { return &d.HostIfcModel }),

		// --- Constrained (non-tunable) categoricals.
		catParam("Interface", ssd.InterfaceNames(), false,
			func(d *device) *ssd.Interface { return &d.HostInterface }),
		catParam("FlashType", ssd.FlashTypeNames(), false,
			func(d *device) *ssd.FlashType { return &d.FlashType }),
	}

	s := &Space{Params: params, Cons: cons, index: make(map[string]int, len(params))}
	for i, p := range s.Params {
		s.index[p.Name] = i
	}
	return s
}

func boolParam(name string, at func(*device) *bool) Param {
	return Param{Name: name, Kind: Boolean, Tunable: true, Values: []float64{0, 1}, field: flag(at)}
}

// catParam builds a categorical parameter whose grid indices are the
// registry wire values 0..n-1 and whose labels are the registry names.
func catParam[T ~uint8](name string, labels []string, tunable bool, at func(*device) *T) Param {
	values := make([]float64, len(labels))
	for i := range values {
		values[i] = float64(i)
	}
	return Param{Name: name, Kind: Categorical, Tunable: tunable, Values: values, Labels: labels, field: plain(at)}
}

// device is the simulator configuration a parameter's field points into.
type device = ssd.DeviceParams

// A field maps one parameter's grid value onto its device field (set)
// and reads it back in grid units (get). Each implementation wraps one
// accessor that returns a pointer to the field, so every parameter names
// its field and unit once and ToDevice and FromDevice cannot disagree.
type field interface {
	set(d *device, v float64)
	get(d *device) float64
}

// number is the field types a grid value converts to directly.
type number interface {
	~uint8 | ~int | ~int64 | ~float64
}

// plainField holds the grid value as is; integer fields truncate it.
type plainField[T number] func(*device) *T

func plain[T number](at func(*device) *T) field { return plainField[T](at) }

func (f plainField[T]) set(d *device, v float64) { *f(d) = T(v) }
func (f plainField[T]) get(d *device) float64    { return float64(*f(d)) }

// shiftField holds a grid value counted in units of 1<<shift bytes
// (10 for KB, 20 for MB).
type shiftField[T ~int | ~int64] struct {
	shift uint
	at    func(*device) *T
}

func shifted[T ~int | ~int64](shift uint, at func(*device) *T) field {
	return shiftField[T]{shift, at}
}

func (f shiftField[T]) set(d *device, v float64) { *f.at(d) = T(v) << f.shift }
func (f shiftField[T]) get(d *device) float64    { return float64(*f.at(d) >> f.shift) }

// micros holds a grid value in microseconds as a duration.
type micros func(*device) *time.Duration

func (f micros) set(d *device, v float64) { *f(d) = time.Duration(v * float64(time.Microsecond)) }
func (f micros) get(d *device) float64    { return float64(*f(d)) / float64(time.Microsecond) }

// flag holds grid value 1 as true and 0 as false.
type flag func(*device) *bool

func (f flag) set(d *device, v float64) { *f(d) = v >= 0.5 }
func (f flag) get(d *device) float64 {
	if *f(d) {
		return 1
	}
	return 0
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
			cfg[i] = nearestIndex(p.Values, p.field.get(&d))
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
			p.field.set(&d, p.Values[cfg[i]])
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
