package ssd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The reference device-file codec: one declared schema struct and two
// hand-written copy lists, as the codec was before deviceFields became
// its one definition. FuzzParamsJSONMatchesReference holds the
// table-driven codec to it byte for byte and value for value.

// refDeviceJSON is the device-file schema as a declared struct.
type refDeviceJSON struct {
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

// refUS converts microseconds to a Duration, rounding to the nearest
// nanosecond.
func refUS(v float64) time.Duration { return time.Duration(math.Round(v * 1000)) }

// refMarshalJSONParams is the hand-written encoder.
func refMarshalJSONParams(p DeviceParams) ([]byte, error) {
	j := refDeviceJSON{
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

// refUnmarshalJSONParams is the hand-written decoder.
func refUnmarshalJSONParams(data []byte) (DeviceParams, error) {
	var j refDeviceJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return DeviceParams{}, fmt.Errorf("ssd: parse device json: %w", err)
	}
	p := DeviceParams{
		Channels: j.Channels, ChipsPerChannel: j.ChipsPerChannel,
		DiesPerChip: j.DiesPerChip, PlanesPerDie: j.PlanesPerDie,
		BlocksPerPlane: j.BlocksPerPlane, PagesPerBlock: j.PagesPerBlock,
		PageSizeBytes: j.PageSizeBytes,

		ReadLatency: refUS(j.ReadLatencyUS), ProgramLatency: refUS(j.ProgramUS),
		EraseLatency: refUS(j.EraseUS), SuspendProgram: refUS(j.SuspendProgUS),
		SuspendErase: refUS(j.SuspendEraseUS), SuspendEnabled: j.SuspendEnabled,
		ChannelMTps: j.ChannelMTps, ChannelWidthBit: j.ChannelWidthBit,

		DataCacheBytes: j.DataCacheMB << 20, CMTBytes: j.CMTMB << 20,
		CMTEntryBytes: j.CMTEntryBytes, MappingGranularity: j.MappingGranularity,
		CacheLineBytes: j.CacheLineKB << 10, ReadCacheEnabled: j.ReadCacheEnabled,
		ControllerMHz: j.ControllerMHz, DRAMMHz: j.DRAMMHz, DRAMBusBits: j.DRAMBusBits,
		ECCLatency: refUS(j.ECCUS), FirmwareOverhead: refUS(j.FirmwareUS),

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

// deviceFileSeeds are the devices whose encodings seed the device-file
// fuzzers and are pinned byte for byte in testdata/devicefile.
func deviceFileSeeds() map[string]DeviceParams {
	faulted := DefaultParams()
	faulted.Faults = FaultProfile{Rate: 0.01, Seed: 7, DieFailures: 1}
	zoned := DefaultParams()
	zoned.HostIfcModel = IfcZNS
	zoned.ZoneSizeMB, zoned.MaxOpenZones = 128, 16
	streamed := DefaultParams()
	streamed.HostIfcModel = IfcMultiStream
	streamed.WriteStreams = 8
	return map[string]DeviceParams{
		"default": DefaultParams(), "intel750": Intel750(), "850pro": Samsung850Pro(), "zssd": SamsungZSSD(),
		"faulted": faulted, "zns": zoned, "multistream": streamed,
	}
}

// FuzzParamsJSONMatchesReference decodes every input with the
// table-driven codec and with the reference. Both must return the same
// DeviceParams or both an error, and a decoded value must encode to the
// same bytes under both encoders.
func FuzzParamsJSONMatchesReference(f *testing.F) {
	for _, p := range deviceFileSeeds() {
		b, err := refMarshalJSONParams(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"gc_policy":"bogus"}`))
	f.Add([]byte(`{"host_ifc":"open-channel"}`))
	f.Add([]byte(`{"read_latency_us":0.0030000000000000001}`))
	f.Add([]byte(`{"CHANNELS":4,"channels":2,"unknown":1,"zone_size_mb":0,"flash_type":""}`))
	// A file that leaves every lenient field zero: no host-interface
	// model fields and empty policy names.
	old := DefaultParams()
	old.ZoneSizeMB, old.MaxOpenZones, old.WriteStreams = 0, 0, 0
	b, err := refMarshalJSONParams(old)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"MLC", "NVMe", "conventional", "LRU", "greedy", "CWDP"} {
		b = bytes.Replace(b, []byte(`"`+name+`"`), []byte(`""`), 1)
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalJSONParams(data)
		want, refErr := refUnmarshalJSONParams(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree on validity: table %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got != want {
			t.Fatalf("decoders disagree:\n table     %+v\n reference %+v", got, want)
		}
		b, err := MarshalJSONParams(got)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := refMarshalJSONParams(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, rb) {
			t.Fatalf("encoders disagree:\n table     %s\n reference %s", b, rb)
		}
	})
}

// TestDeviceFileGolden pins the encoder's bytes for the presets and the
// fuzz seeds to files written by the reference encoder.
func TestDeviceFileGolden(t *testing.T) {
	for name, p := range deviceFileSeeds() {
		want, err := os.ReadFile(filepath.Join("testdata", "devicefile", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalJSONParams(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding changed:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestDeviceFileCoversEveryField changes each DeviceParams leaf field in
// turn, the fault profile's included, and requires the encoding to
// change, since a field the table leaves out would be lost by every
// device file written, and to match the reference encoder's. An enum
// moves to an unregistered value, which no decoded file holds.
func TestDeviceFileCoversEveryField(t *testing.T) {
	base := DefaultParams()
	baseBytes, err := MarshalJSONParams(base)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	var visit func(v reflect.Value, path string)
	visit = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				visit(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		}
		leaves++
		old := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1<<20) // moves bytes by 1 MB and ns by over 1 µs
		case reflect.Uint8:
			v.SetUint(v.Uint() + 200)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: unhandled kind %s", path, v.Kind())
		}
		b, err := MarshalJSONParams(base)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(b, baseBytes) {
			t.Errorf("DeviceParams%s: changing it leaves the device file unchanged", path)
		}
		if rb, err := refMarshalJSONParams(base); err != nil || !bytes.Equal(b, rb) {
			t.Errorf("DeviceParams%s: encoding differs from the reference (%v):\n%s\n%s", path, err, b, rb)
		}
		v.Set(old)
	}
	visit(reflect.ValueOf(&base).Elem(), "")
	if leaves != len(deviceFields) {
		t.Errorf("DeviceParams has %d leaf fields, the device file %d", leaves, len(deviceFields))
	}
}
