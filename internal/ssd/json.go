package ssd

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// JSON (de)serialization of DeviceParams, used by cmd/ssdsim to load
// custom device files and by AutoDB consumers who want to export learned
// configurations. Durations are expressed in microseconds and sizes in
// MB, matching how the paper (and SSD spec sheets) quote them.

// deviceJSON is the stable on-disk schema.
type deviceJSON struct {
	Channels        int `json:"channels"`
	ChipsPerChannel int `json:"chips_per_channel"`
	DiesPerChip     int `json:"dies_per_chip"`
	PlanesPerDie    int `json:"planes_per_die"`
	BlocksPerPlane  int `json:"blocks_per_plane"`
	PagesPerBlock   int `json:"pages_per_block"`
	PageSizeBytes   int `json:"page_size_bytes"`

	FlashType       string  `json:"flash_type"`
	ReadLatencyUS   float64 `json:"read_latency_us"`
	ProgramUS       float64 `json:"program_latency_us"`
	EraseUS         float64 `json:"erase_latency_us"`
	SuspendProgUS   float64 `json:"suspend_program_us"`
	SuspendEraseUS  float64 `json:"suspend_erase_us"`
	SuspendEnabled  bool    `json:"suspend_enabled"`
	ChannelMTps     float64 `json:"channel_mtps"`
	ChannelWidthBit int     `json:"channel_width_bit"`

	DataCacheMB        int64   `json:"data_cache_mb"`
	CMTMB              int64   `json:"cmt_mb"`
	CMTEntryBytes      int     `json:"cmt_entry_bytes"`
	MappingGranularity int     `json:"mapping_granularity"`
	CacheLineKB        int     `json:"cache_line_kb"`
	CachePolicy        string  `json:"cache_policy"`
	ReadCacheEnabled   bool    `json:"read_cache_enabled"`
	ControllerMHz      int     `json:"controller_mhz"`
	DRAMMHz            int     `json:"dram_mhz"`
	DRAMBusBits        int     `json:"dram_bus_bits"`
	ECCUS              float64 `json:"ecc_latency_us"`
	FirmwareUS         float64 `json:"firmware_overhead_us"`

	Interface    string  `json:"interface"`
	HostIfcModel string  `json:"host_ifc,omitempty"`
	ZoneSizeMB   int     `json:"zone_size_mb,omitempty"`
	MaxOpenZones int     `json:"max_open_zones,omitempty"`
	WriteStreams int     `json:"write_streams,omitempty"`
	QueueDepth   int     `json:"queue_depth"`
	QueueCount   int     `json:"queue_count"`
	PCIeLanes    int     `json:"pcie_lanes"`
	PCIeLaneMBps float64 `json:"pcie_lane_mbps"`

	OverprovisionRatio   float64 `json:"overprovision_ratio"`
	GCThresholdPct       float64 `json:"gc_threshold_pct"`
	GCPolicy             string  `json:"gc_policy"`
	CopybackEnabled      bool    `json:"copyback_enabled"`
	StaticWearLeveling   bool    `json:"static_wear_leveling"`
	WearLevelingThresh   int     `json:"wear_leveling_threshold"`
	DynamicWearLeveling  bool    `json:"dynamic_wear_leveling"`
	PlaneAllocScheme     string  `json:"plane_alloc_scheme"`
	WriteBufferFlushPct  float64 `json:"write_buffer_flush_pct"`
	PageMetadataBytes    int     `json:"page_metadata_bytes"`
	BadBlockPct          float64 `json:"bad_block_pct"`
	ReadRetryLimit       int     `json:"read_retry_limit"`
	IOMergingEnabled     bool    `json:"io_merging_enabled"`
	TransactionSchedOOO  bool    `json:"transaction_sched_ooo"`
	InitialOccupancyFrac float64 `json:"initial_occupancy_frac"`

	// Fault injection; omitted when disabled so fault-free device files
	// keep their historical byte layout.
	FaultRate        float64 `json:"fault_rate,omitempty"`
	FaultSeed        int64   `json:"fault_seed,omitempty"`
	FaultDieFailures int     `json:"fault_die_failures,omitempty"`
}

// us converts microseconds to a Duration, rounding to the nearest
// nanosecond: truncation would turn e.g. 3ns → 0.003µs → 2.999…µs→ 2ns
// and break the decode→encode→decode fixed point FuzzParamsJSON pins.
func us(v float64) time.Duration { return time.Duration(math.Round(v * 1000)) }

// MarshalJSONParams serializes a device configuration.
func MarshalJSONParams(p DeviceParams) ([]byte, error) {
	j := deviceJSON{
		Channels: p.Channels, ChipsPerChannel: p.ChipsPerChannel,
		DiesPerChip: p.DiesPerChip, PlanesPerDie: p.PlanesPerDie,
		BlocksPerPlane: p.BlocksPerPlane, PagesPerBlock: p.PagesPerBlock,
		PageSizeBytes: p.PageSizeBytes,

		FlashType:      p.FlashType.String(),
		ReadLatencyUS:  float64(p.ReadLatency) / float64(time.Microsecond),
		ProgramUS:      float64(p.ProgramLatency) / float64(time.Microsecond),
		EraseUS:        float64(p.EraseLatency) / float64(time.Microsecond),
		SuspendProgUS:  float64(p.SuspendProgram) / float64(time.Microsecond),
		SuspendEraseUS: float64(p.SuspendErase) / float64(time.Microsecond),
		SuspendEnabled: p.SuspendEnabled,
		ChannelMTps:    p.ChannelMTps, ChannelWidthBit: p.ChannelWidthBit,

		DataCacheMB: p.DataCacheBytes >> 20, CMTMB: p.CMTBytes >> 20,
		CMTEntryBytes: p.CMTEntryBytes, MappingGranularity: p.MappingGranularity,
		CacheLineKB: p.CacheLineBytes >> 10, CachePolicy: p.CachePolicy.String(),
		ReadCacheEnabled: p.ReadCacheEnabled, ControllerMHz: p.ControllerMHz,
		DRAMMHz: p.DRAMMHz, DRAMBusBits: p.DRAMBusBits,
		ECCUS:      float64(p.ECCLatency) / float64(time.Microsecond),
		FirmwareUS: float64(p.FirmwareOverhead) / float64(time.Microsecond),

		Interface: p.HostInterface.String(), HostIfcModel: p.HostIfcModel.String(),
		ZoneSizeMB: p.ZoneSizeMB, MaxOpenZones: p.MaxOpenZones, WriteStreams: p.WriteStreams,
		QueueDepth: p.QueueDepth,
		QueueCount: p.QueueCount, PCIeLanes: p.PCIeLanes, PCIeLaneMBps: p.PCIeLaneMBps,

		OverprovisionRatio: p.OverprovisionRatio, GCThresholdPct: p.GCThresholdPct,
		GCPolicy: p.GCPolicy.String(), CopybackEnabled: p.CopybackEnabled,
		StaticWearLeveling: p.StaticWearLeveling, WearLevelingThresh: p.WearLevelingThresh,
		DynamicWearLeveling: p.DynamicWearLeveling, PlaneAllocScheme: p.PlaneAllocScheme.String(),
		WriteBufferFlushPct: p.WriteBufferFlushPct, PageMetadataBytes: p.PageMetadataBytes,
		BadBlockPct: p.BadBlockPct, ReadRetryLimit: p.ReadRetryLimit,
		IOMergingEnabled: p.IOMergingEnabled, TransactionSchedOOO: p.TransactionSchedOOO,
		InitialOccupancyFrac: p.InitialOccupancyFrac,

		FaultRate: p.Faults.Rate, FaultSeed: p.Faults.Seed,
		FaultDieFailures: p.Faults.DieFailures,
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalJSONParams parses a device configuration and validates it.
func UnmarshalJSONParams(data []byte) (DeviceParams, error) {
	var j deviceJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return DeviceParams{}, fmt.Errorf("ssd: parse device json: %w", err)
	}
	p := DeviceParams{
		Channels: j.Channels, ChipsPerChannel: j.ChipsPerChannel,
		DiesPerChip: j.DiesPerChip, PlanesPerDie: j.PlanesPerDie,
		BlocksPerPlane: j.BlocksPerPlane, PagesPerBlock: j.PagesPerBlock,
		PageSizeBytes: j.PageSizeBytes,

		ReadLatency: us(j.ReadLatencyUS), ProgramLatency: us(j.ProgramUS),
		EraseLatency: us(j.EraseUS), SuspendProgram: us(j.SuspendProgUS),
		SuspendErase: us(j.SuspendEraseUS), SuspendEnabled: j.SuspendEnabled,
		ChannelMTps: j.ChannelMTps, ChannelWidthBit: j.ChannelWidthBit,

		DataCacheBytes: j.DataCacheMB << 20, CMTBytes: j.CMTMB << 20,
		CMTEntryBytes: j.CMTEntryBytes, MappingGranularity: j.MappingGranularity,
		CacheLineBytes: j.CacheLineKB << 10, ReadCacheEnabled: j.ReadCacheEnabled,
		ControllerMHz: j.ControllerMHz, DRAMMHz: j.DRAMMHz, DRAMBusBits: j.DRAMBusBits,
		ECCLatency: us(j.ECCUS), FirmwareOverhead: us(j.FirmwareUS),

		ZoneSizeMB: j.ZoneSizeMB, MaxOpenZones: j.MaxOpenZones,
		WriteStreams: j.WriteStreams,
		QueueDepth:   j.QueueDepth, QueueCount: j.QueueCount,
		PCIeLanes: j.PCIeLanes, PCIeLaneMBps: j.PCIeLaneMBps,

		OverprovisionRatio: j.OverprovisionRatio, GCThresholdPct: j.GCThresholdPct,
		CopybackEnabled: j.CopybackEnabled, StaticWearLeveling: j.StaticWearLeveling,
		WearLevelingThresh: j.WearLevelingThresh, DynamicWearLeveling: j.DynamicWearLeveling,
		WriteBufferFlushPct: j.WriteBufferFlushPct, PageMetadataBytes: j.PageMetadataBytes,
		BadBlockPct: j.BadBlockPct, ReadRetryLimit: j.ReadRetryLimit,
		IOMergingEnabled: j.IOMergingEnabled, TransactionSchedOOO: j.TransactionSchedOOO,
		InitialOccupancyFrac: j.InitialOccupancyFrac,

		Faults: FaultProfile{Rate: j.FaultRate, Seed: j.FaultSeed, DieFailures: j.FaultDieFailures},
	}
	// Enum fields resolve through the policy registry: empty strings keep
	// the lenient defaults (MLC, NVMe, LRU, greedy, CWDP, conventional)
	// and unknown names error instead of silently defaulting. The
	// host-interface model numerics default likewise, so pre-existing
	// device files that omit them keep parsing.
	p.FlashType, p.HostInterface = MLC, NVMe
	p.CachePolicy, p.GCPolicy = CacheLRU, GCGreedy
	p.HostIfcModel = IfcConventional
	if p.ZoneSizeMB == 0 {
		p.ZoneSizeMB = 256
	}
	if p.MaxOpenZones == 0 {
		p.MaxOpenZones = 8
	}
	if p.WriteStreams == 0 {
		p.WriteStreams = 4
	}
	var err error
	if j.FlashType != "" {
		if p.FlashType, err = ParseFlashType(j.FlashType); err != nil {
			return DeviceParams{}, err
		}
	}
	if j.Interface != "" {
		if p.HostInterface, err = ParseInterface(j.Interface); err != nil {
			return DeviceParams{}, err
		}
	}
	if j.CachePolicy != "" {
		if p.CachePolicy, err = ParseCachePolicy(j.CachePolicy); err != nil {
			return DeviceParams{}, err
		}
	}
	if j.GCPolicy != "" {
		if p.GCPolicy, err = ParseGCPolicy(j.GCPolicy); err != nil {
			return DeviceParams{}, err
		}
	}
	if j.PlaneAllocScheme != "" {
		if p.PlaneAllocScheme, err = ParseAllocScheme(j.PlaneAllocScheme); err != nil {
			return DeviceParams{}, err
		}
	}
	if j.HostIfcModel != "" {
		if p.HostIfcModel, err = ParseHostIfc(j.HostIfcModel); err != nil {
			return DeviceParams{}, err
		}
	}
	if err := p.Validate(); err != nil {
		return DeviceParams{}, err
	}
	return p, nil
}

// LoadParams reads a device configuration from a JSON file.
func LoadParams(path string) (DeviceParams, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return DeviceParams{}, fmt.Errorf("ssd: %w", err)
	}
	return UnmarshalJSONParams(data)
}
