// Package ssd implements a discrete-event, multi-queue SSD simulator in
// the spirit of MQSim (Tavakkol et al., FAST'18), which the paper uses
// for efficiency validation. The simulator models the resources whose
// contention determines SSD performance — channel buses, dies/planes,
// the DFTL-style cached mapping table, the DRAM data cache, garbage
// collection and wear leveling — plus the energy accounting AutoBlox adds
// on top of MQSim (flash op energy, DRAM power, controller power).
//
// Fidelity note: like MQSim, this is an event/transaction-level model,
// not a gate-level one. Absolute latencies differ from any physical
// device; relative behaviour across configurations (the input AutoBlox
// learns from) is what the model preserves.
package ssd

import (
	"errors"
	"fmt"
	"time"
)

// Interface is the host-device protocol.
type Interface uint8

const (
	// NVMe is the PCIe-attached multi-queue interface.
	NVMe Interface = iota
	// SATA is the legacy single-queue (NCQ) interface.
	SATA
)

// interfaceTable registers the host-interface enum so its labels come
// from the same registry as the policy domains.
var interfaceTable = []policyEntry[struct{}]{
	NVMe: {name: "NVMe", doc: "PCIe multi-queue"},
	SATA: {name: "SATA", doc: "legacy single-queue (NCQ)"},
}

var interfaces = domainOf("interface", interfaceTable)

func (i Interface) String() string { return interfaces.name(uint8(i)) }

// ParseInterface resolves a registry name like "NVMe".
func ParseInterface(s string) (Interface, error) {
	v, err := interfaces.parse(s)
	return Interface(v), err
}

// FlashType selects the NAND cell technology.
type FlashType uint8

const (
	// SLC stores one bit per cell (fastest, e.g. Samsung Z-SSD Z-NAND).
	SLC FlashType = iota
	// MLC stores two bits per cell (Intel 750, Samsung 850 PRO).
	MLC
	// TLC stores three bits per cell.
	TLC
)

// flashTypeTable registers the NAND cell technologies.
var flashTypeTable = []policyEntry[struct{}]{
	SLC: {name: "SLC", doc: "1 bit/cell"},
	MLC: {name: "MLC", doc: "2 bits/cell"},
	TLC: {name: "TLC", doc: "3 bits/cell"},
}

var flashTypes = domainOf("flash type", flashTypeTable)

func (f FlashType) String() string { return flashTypes.name(uint8(f)) }

// ParseFlashType resolves a registry name like "MLC".
func ParseFlashType(s string) (FlashType, error) {
	v, err := flashTypes.parse(s)
	return FlashType(v), err
}

// DeviceParams is a fully resolved SSD hardware configuration — the
// simulator's input. ssdconf builds these from the tunable parameter
// space.
type DeviceParams struct {
	// --- Flash geometry.
	Channels        int
	ChipsPerChannel int
	DiesPerChip     int
	PlanesPerDie    int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageSizeBytes   int

	// --- Flash timing.
	FlashType       FlashType
	ReadLatency     time.Duration // page read (tR)
	ProgramLatency  time.Duration // page program (tPROG)
	EraseLatency    time.Duration // block erase (tBERS)
	SuspendProgram  time.Duration // program-suspend service window
	SuspendErase    time.Duration // erase-suspend service window
	SuspendEnabled  bool
	ChannelMTps     float64 // channel transfer rate, mega-transfers/s
	ChannelWidthBit int     // channel bus width in bits

	// --- Controller and DRAM.
	DataCacheBytes     int64
	CMTBytes           int64
	CMTEntryBytes      int
	MappingGranularity int // logical pages covered per CMT entry
	CacheLineBytes     int
	CachePolicy        CachePolicy
	ReadCacheEnabled   bool
	ControllerMHz      int
	DRAMMHz            int
	DRAMBusBits        int
	ECCLatency         time.Duration
	FirmwareOverhead   time.Duration // per-command FTL processing

	// --- Host interface.
	HostInterface Interface
	HostIfcModel  HostIfc // command-set model: conventional, ZNS, multi-stream
	ZoneSizeMB    int     // ZNS zone size (ignored by other models)
	MaxOpenZones  int     // ZNS open-zone limit = per-plane write lanes
	WriteStreams  int     // multi-stream lane count (ignored by other models)
	QueueDepth    int
	QueueCount    int
	PCIeLanes     int
	PCIeLaneMBps  float64 // per-lane usable bandwidth

	// --- FTL policies.
	OverprovisionRatio   float64 // e.g. 0.07 = 7% spare capacity
	GCThresholdPct       float64 // run GC when free blocks fall below this %
	GCPolicy             GCPolicy
	CopybackEnabled      bool // on-chip GC copy, skipping the channel bus
	StaticWearLeveling   bool
	WearLevelingThresh   int // erase-count delta that triggers a swap
	DynamicWearLeveling  bool
	PlaneAllocScheme     AllocScheme
	WriteBufferFlushPct  float64 // flush dirty cache above this occupancy %
	PageMetadataBytes    int     // per-page OOB metadata (spare area)
	BadBlockPct          float64 // factory bad-block ratio
	ReadRetryLimit       int
	IOMergingEnabled     bool
	TransactionSchedOOO  bool    // out-of-order transaction scheduling
	InitialOccupancyFrac float64 // pre-fill fraction before measurement

	// --- Fault injection (faults.go). The zero value disables it.
	Faults FaultProfile
}

// PagesPerPlane returns the page count of one plane.
func (p *DeviceParams) PagesPerPlane() int { return p.BlocksPerPlane * p.PagesPerBlock }

// TotalPlanes returns the number of planes across the device.
func (p *DeviceParams) TotalPlanes() int {
	return p.Channels * p.ChipsPerChannel * p.DiesPerChip * p.PlanesPerDie
}

// CapacityBytes returns the raw flash capacity.
func (p *DeviceParams) CapacityBytes() int64 {
	return int64(p.TotalPlanes()) * int64(p.PagesPerPlane()) * int64(p.PageSizeBytes)
}

// UsableBytes returns capacity after over-provisioning and bad blocks.
func (p *DeviceParams) UsableBytes() int64 {
	raw := float64(p.CapacityBytes())
	return int64(raw * (1 - p.OverprovisionRatio) * (1 - p.BadBlockPct/100))
}

// ChannelBandwidthBps returns one channel's peak transfer bandwidth in
// bytes/second.
func (p *DeviceParams) ChannelBandwidthBps() float64 {
	return p.ChannelMTps * 1e6 * float64(p.ChannelWidthBit) / 8
}

// HostBandwidthBps returns the host link bandwidth in bytes/second.
func (p *DeviceParams) HostBandwidthBps() float64 {
	if p.HostInterface == SATA {
		return 600e6 // SATA III payload rate
	}
	return float64(p.PCIeLanes) * p.PCIeLaneMBps * 1e6
}

// Validate reports the first structural problem with the configuration.
func (p *DeviceParams) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	checks := []check{
		{p.Channels >= 1, "Channels must be >= 1"},
		{p.ChipsPerChannel >= 1, "ChipsPerChannel must be >= 1"},
		{p.DiesPerChip >= 1, "DiesPerChip must be >= 1"},
		{p.PlanesPerDie >= 1, "PlanesPerDie must be >= 1"},
		{p.BlocksPerPlane >= 4, "BlocksPerPlane must be >= 4"},
		{p.PagesPerBlock >= 4, "PagesPerBlock must be >= 4"},
		{p.PageSizeBytes >= 512, "PageSizeBytes must be >= 512"},
		{p.PageSizeBytes%512 == 0, "PageSizeBytes must be a sector multiple"},
		{p.ReadLatency > 0, "ReadLatency must be positive"},
		{p.ProgramLatency > 0, "ProgramLatency must be positive"},
		{p.EraseLatency > 0, "EraseLatency must be positive"},
		{p.ChannelMTps > 0, "ChannelMTps must be positive"},
		{p.ChannelWidthBit > 0, "ChannelWidthBit must be positive"},
		{p.QueueDepth >= 1, "QueueDepth must be >= 1"},
		{p.ZoneSizeMB >= 1 && p.ZoneSizeMB <= 1<<20, "ZoneSizeMB out of range"},
		{p.MaxOpenZones >= 1 && p.MaxOpenZones <= 1024, "MaxOpenZones out of range"},
		{p.WriteStreams >= 1 && p.WriteStreams <= 256, "WriteStreams out of range"},
		{p.OverprovisionRatio >= 0 && p.OverprovisionRatio < 0.9, "OverprovisionRatio out of range"},
		{p.GCThresholdPct > 0 && p.GCThresholdPct < 100, "GCThresholdPct out of range"},
		{p.HostInterface != NVMe || p.PCIeLanes >= 1, "NVMe requires PCIeLanes >= 1"},
		{p.MappingGranularity >= 1, "MappingGranularity must be >= 1"},
		{p.CMTEntryBytes >= 1, "CMTEntryBytes must be >= 1"},
		{p.InitialOccupancyFrac >= 0 && p.InitialOccupancyFrac < 1, "InitialOccupancyFrac out of range"},

		// Range checks on the remaining numeric fields. Besides catching
		// typos in hand-written device files, the bounds keep every
		// validated configuration JSON-round-trippable (no NaN/Inf, and
		// durations small enough that the microsecond float encoding is
		// exact — see FuzzParamsJSON).
		{p.Channels <= 1024 && p.ChipsPerChannel <= 1024 && p.DiesPerChip <= 1024 && p.PlanesPerDie <= 1024,
			"geometry fan-out out of range (each level must be <= 1024)"},
		{p.BlocksPerPlane <= 1<<20 && p.PagesPerBlock <= 1<<20, "BlocksPerPlane/PagesPerBlock out of range"},
		{p.PageSizeBytes <= 1<<26, "PageSizeBytes out of range"},
		{p.ReadLatency <= time.Second, "ReadLatency out of range"},
		{p.ProgramLatency <= 10*time.Second, "ProgramLatency out of range"},
		{p.EraseLatency <= 60*time.Second, "EraseLatency out of range"},
		{p.SuspendProgram >= 0 && p.SuspendProgram <= 60*time.Second, "SuspendProgram out of range"},
		{p.SuspendErase >= 0 && p.SuspendErase <= 60*time.Second, "SuspendErase out of range"},
		{p.ECCLatency >= 0 && p.ECCLatency <= time.Second, "ECCLatency out of range"},
		{p.FirmwareOverhead >= 0 && p.FirmwareOverhead <= time.Second, "FirmwareOverhead out of range"},
		{p.ChannelMTps <= 1e6, "ChannelMTps out of range"},
		{p.PCIeLaneMBps >= 0 && p.PCIeLaneMBps <= 1e6, "PCIeLaneMBps out of range"},
		{p.WriteBufferFlushPct >= 0 && p.WriteBufferFlushPct <= 100, "WriteBufferFlushPct out of range"},
		{p.BadBlockPct >= 0 && p.BadBlockPct <= 50, "BadBlockPct out of range"},
		{p.ReadRetryLimit >= 0 && p.ReadRetryLimit <= 64, "ReadRetryLimit out of range"},
		{p.DataCacheBytes >= 0 && p.CMTBytes >= 0, "cache sizes must be non-negative"},
		{p.CacheLineBytes >= 0 && p.PageMetadataBytes >= 0 && p.WearLevelingThresh >= 0,
			"CacheLineBytes/PageMetadataBytes/WearLevelingThresh must be non-negative"},
		{p.Faults.Rate >= 0 && p.Faults.Rate <= 0.5, "Faults.Rate out of range [0, 0.5]"},
		{p.Faults.DieFailures >= 0 && p.Faults.DieFailures < p.Channels*p.ChipsPerChannel*p.DiesPerChip,
			"Faults.DieFailures must leave at least one live die"},
	}
	for _, c := range checks {
		if !c.ok {
			return errors.New("ssd: " + c.msg)
		}
	}
	// Every registry-backed enum must name a registered policy.
	for _, f := range deviceFields {
		if e, ok := f.unit.(enumUnit); ok && !e.domain().valid(uint8(f.Get(p))) {
			return fmt.Errorf("ssd: invalid %s %d", e.domain().label, int(f.Get(p)))
		}
	}
	return nil
}

// flashDefaults returns (read, program, erase) latencies typical for a
// flash type; used by baseline configurations and the what-if bounds.
func flashDefaults(t FlashType) (read, program, erase time.Duration) {
	switch t {
	case SLC:
		return 25 * time.Microsecond, 200 * time.Microsecond, 1500 * time.Microsecond
	case MLC:
		return 83 * time.Microsecond, 1166 * time.Microsecond, 3000 * time.Microsecond
	default: // TLC
		return 110 * time.Microsecond, 2500 * time.Microsecond, 4500 * time.Microsecond
	}
}

// DefaultParams returns a conservative, valid MLC NVMe device used as a
// starting point by tests and examples.
func DefaultParams() DeviceParams {
	r, pr, e := flashDefaults(MLC)
	return DeviceParams{
		Channels:        8,
		ChipsPerChannel: 4,
		DiesPerChip:     2,
		PlanesPerDie:    2,
		BlocksPerPlane:  512,
		PagesPerBlock:   256,
		PageSizeBytes:   16384,

		FlashType:       MLC,
		ReadLatency:     r,
		ProgramLatency:  pr,
		EraseLatency:    e,
		SuspendProgram:  50 * time.Microsecond,
		SuspendErase:    100 * time.Microsecond,
		ChannelMTps:     333,
		ChannelWidthBit: 8,

		DataCacheBytes:     512 << 20,
		CMTBytes:           128 << 20,
		CMTEntryBytes:      8,
		MappingGranularity: 1,
		CacheLineBytes:     16384,
		CachePolicy:        CacheLRU,
		ReadCacheEnabled:   true,
		ControllerMHz:      500,
		DRAMMHz:            800,
		DRAMBusBits:        32,
		ECCLatency:         8 * time.Microsecond,
		FirmwareOverhead:   3 * time.Microsecond,

		HostInterface: NVMe,
		HostIfcModel:  IfcConventional,
		ZoneSizeMB:    256,
		MaxOpenZones:  8,
		WriteStreams:  4,
		QueueDepth:    32,
		QueueCount:    8,
		PCIeLanes:     4,
		PCIeLaneMBps:  985,

		OverprovisionRatio:   0.07,
		GCThresholdPct:       5,
		GCPolicy:             GCGreedy,
		CopybackEnabled:      false,
		StaticWearLeveling:   true,
		WearLevelingThresh:   100,
		DynamicWearLeveling:  true,
		PlaneAllocScheme:     AllocCWDP,
		WriteBufferFlushPct:  80,
		PageMetadataBytes:    448,
		BadBlockPct:          0.5,
		ReadRetryLimit:       3,
		IOMergingEnabled:     true,
		TransactionSchedOOO:  true,
		InitialOccupancyFrac: 0.5,
	}
}

// Intel750 approximates the Intel 750 NVMe MLC SSD configuration the
// paper uses as its primary reference (CAMELab SimpleSSD config values:
// 12-deep channel fan-out, 800MB data cache, 256MB CMT, 333MT/s bus).
func Intel750() DeviceParams {
	p := DefaultParams()
	p.Channels = 12
	p.ChipsPerChannel = 5
	p.DiesPerChip = 8
	p.PlanesPerDie = 1
	p.BlocksPerPlane = 512
	p.PagesPerBlock = 512
	p.PageSizeBytes = 4096 // 480 planes × 512 × 512 × 4KB = 512 GiB raw
	p.DataCacheBytes = 800 << 20
	p.CMTBytes = 256 << 20
	p.ChannelMTps = 333
	p.QueueDepth = 32
	p.HostInterface = NVMe
	p.FlashType = MLC
	p.ReadLatency, p.ProgramLatency, p.EraseLatency = 83*time.Microsecond, 1166*time.Microsecond, 3*time.Millisecond
	return p
}

// Samsung850Pro approximates the Samsung 850 PRO SATA MLC SSD.
func Samsung850Pro() DeviceParams {
	p := DefaultParams()
	p.Channels = 8
	p.ChipsPerChannel = 8
	p.DiesPerChip = 2
	p.PlanesPerDie = 2
	p.BlocksPerPlane = 512
	p.PagesPerBlock = 256
	p.PageSizeBytes = 16384 // 256 planes × 512 × 256 × 16KB = 512 GiB raw
	p.DataCacheBytes = 512 << 20
	p.CMTBytes = 128 << 20
	p.ChannelMTps = 300
	p.HostInterface = SATA
	p.QueueDepth = 32 // NCQ
	p.FlashType = MLC
	p.ReadLatency, p.ProgramLatency, p.EraseLatency = 75*time.Microsecond, 1100*time.Microsecond, 3*time.Millisecond
	return p
}

// SamsungZSSD approximates the Samsung Z-SSD (NVMe, SLC-like Z-NAND).
func SamsungZSSD() DeviceParams {
	p := DefaultParams()
	p.Channels = 16
	p.ChipsPerChannel = 2
	p.DiesPerChip = 2
	p.PlanesPerDie = 2
	p.BlocksPerPlane = 512
	p.PagesPerBlock = 512
	p.PageSizeBytes = 16384 // 128 planes × 512 × 512 × 16KB = 512 GiB raw
	p.DataCacheBytes = 1024 << 20
	p.CMTBytes = 256 << 20
	p.ChannelMTps = 667
	p.HostInterface = NVMe
	p.QueueDepth = 64
	p.FlashType = SLC
	p.ReadLatency, p.ProgramLatency, p.EraseLatency = 3*time.Microsecond, 100*time.Microsecond, 1*time.Millisecond
	return p
}
