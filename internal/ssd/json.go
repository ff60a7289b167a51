package ssd

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The device file is DeviceParams as JSON, with durations in
// microseconds and DRAM sizes in MB or KB, as the paper and SSD spec
// sheets quote them, and policies by registry name. cmd/ssdsim loads
// custom devices from it and sets single fields by the same keys
// (SetField). deviceFields is its one definition, and ssdconf's search
// space reads the same rows.

// A Field is one DeviceParams leaf field as the device file and the
// search space see it. Its Get and Set read and write the field in file
// units; a registry enum's value is its registry index and a bool's is
// 0 or 1.
type Field struct {
	key string
	// omitEmpty leaves a zero value out of the file (the fault and
	// host-interface model fields), so devices without those features
	// keep the byte layout they had before the fields existed.
	omitEmpty bool
	// lenient gives a zero or empty file value DefaultParams' value, so
	// files that predate a field (or leave a policy out) still parse.
	lenient bool
	unit
}

// A unit converts one field between DeviceParams and its file value
// (an addressable field of fileSchema, of type fileType) and between
// DeviceParams and a search-space grid value.
type unit interface {
	fileType() reflect.Type
	encode(p *DeviceParams, file reflect.Value)
	decode(p *DeviceParams, file reflect.Value) error
	// Get returns the field's value in file units.
	Get(p *DeviceParams) float64
	// Set stores a value given in file units.
	Set(p *DeviceParams, v float64)
}

// deviceFields lists every DeviceParams leaf field in file order.
var deviceFields = []Field{
	{key: "channels", unit: num(func(p *DeviceParams) *int { return &p.Channels })},
	{key: "chips_per_channel", unit: num(func(p *DeviceParams) *int { return &p.ChipsPerChannel })},
	{key: "dies_per_chip", unit: num(func(p *DeviceParams) *int { return &p.DiesPerChip })},
	{key: "planes_per_die", unit: num(func(p *DeviceParams) *int { return &p.PlanesPerDie })},
	{key: "blocks_per_plane", unit: num(func(p *DeviceParams) *int { return &p.BlocksPerPlane })},
	{key: "pages_per_block", unit: num(func(p *DeviceParams) *int { return &p.PagesPerBlock })},
	{key: "page_size_bytes", unit: num(func(p *DeviceParams) *int { return &p.PageSizeBytes })},

	{key: "flash_type", lenient: true, unit: registry(flashTypes, func(p *DeviceParams) *FlashType { return &p.FlashType })},
	{key: "read_latency_us", unit: usec(func(p *DeviceParams) *time.Duration { return &p.ReadLatency })},
	{key: "program_latency_us", unit: usec(func(p *DeviceParams) *time.Duration { return &p.ProgramLatency })},
	{key: "erase_latency_us", unit: usec(func(p *DeviceParams) *time.Duration { return &p.EraseLatency })},
	{key: "suspend_program_us", unit: usec(func(p *DeviceParams) *time.Duration { return &p.SuspendProgram })},
	{key: "suspend_erase_us", unit: usec(func(p *DeviceParams) *time.Duration { return &p.SuspendErase })},
	{key: "suspend_enabled", unit: boolean(func(p *DeviceParams) *bool { return &p.SuspendEnabled })},
	{key: "channel_mtps", unit: num(func(p *DeviceParams) *float64 { return &p.ChannelMTps })},
	{key: "channel_width_bit", unit: num(func(p *DeviceParams) *int { return &p.ChannelWidthBit })},

	{key: "data_cache_mb", unit: shift(20, func(p *DeviceParams) *int64 { return &p.DataCacheBytes })},
	{key: "cmt_mb", unit: shift(20, func(p *DeviceParams) *int64 { return &p.CMTBytes })},
	{key: "cmt_entry_bytes", unit: num(func(p *DeviceParams) *int { return &p.CMTEntryBytes })},
	{key: "mapping_granularity", unit: num(func(p *DeviceParams) *int { return &p.MappingGranularity })},
	{key: "cache_line_kb", unit: shift(10, func(p *DeviceParams) *int { return &p.CacheLineBytes })},
	{key: "cache_policy", lenient: true, unit: registry(cachePolicies, func(p *DeviceParams) *CachePolicy { return &p.CachePolicy })},
	{key: "read_cache_enabled", unit: boolean(func(p *DeviceParams) *bool { return &p.ReadCacheEnabled })},
	{key: "controller_mhz", unit: num(func(p *DeviceParams) *int { return &p.ControllerMHz })},
	{key: "dram_mhz", unit: num(func(p *DeviceParams) *int { return &p.DRAMMHz })},
	{key: "dram_bus_bits", unit: num(func(p *DeviceParams) *int { return &p.DRAMBusBits })},
	{key: "ecc_latency_us", unit: usec(func(p *DeviceParams) *time.Duration { return &p.ECCLatency })},
	{key: "firmware_overhead_us", unit: usec(func(p *DeviceParams) *time.Duration { return &p.FirmwareOverhead })},

	{key: "interface", lenient: true, unit: registry(interfaces, func(p *DeviceParams) *Interface { return &p.HostInterface })},
	{key: "host_ifc", omitEmpty: true, lenient: true, unit: registry(hostIfcs, func(p *DeviceParams) *HostIfc { return &p.HostIfcModel })},
	{key: "zone_size_mb", omitEmpty: true, lenient: true, unit: num(func(p *DeviceParams) *int { return &p.ZoneSizeMB })},
	{key: "max_open_zones", omitEmpty: true, lenient: true, unit: num(func(p *DeviceParams) *int { return &p.MaxOpenZones })},
	{key: "write_streams", omitEmpty: true, lenient: true, unit: num(func(p *DeviceParams) *int { return &p.WriteStreams })},
	{key: "queue_depth", unit: num(func(p *DeviceParams) *int { return &p.QueueDepth })},
	{key: "queue_count", unit: num(func(p *DeviceParams) *int { return &p.QueueCount })},
	{key: "pcie_lanes", unit: num(func(p *DeviceParams) *int { return &p.PCIeLanes })},
	{key: "pcie_lane_mbps", unit: num(func(p *DeviceParams) *float64 { return &p.PCIeLaneMBps })},

	{key: "overprovision_ratio", unit: num(func(p *DeviceParams) *float64 { return &p.OverprovisionRatio })},
	{key: "gc_threshold_pct", unit: num(func(p *DeviceParams) *float64 { return &p.GCThresholdPct })},
	{key: "gc_policy", lenient: true, unit: registry(gcPolicies, func(p *DeviceParams) *GCPolicy { return &p.GCPolicy })},
	{key: "copyback_enabled", unit: boolean(func(p *DeviceParams) *bool { return &p.CopybackEnabled })},
	{key: "static_wear_leveling", unit: boolean(func(p *DeviceParams) *bool { return &p.StaticWearLeveling })},
	{key: "wear_leveling_threshold", unit: num(func(p *DeviceParams) *int { return &p.WearLevelingThresh })},
	{key: "dynamic_wear_leveling", unit: boolean(func(p *DeviceParams) *bool { return &p.DynamicWearLeveling })},
	{key: "plane_alloc_scheme", lenient: true, unit: registry(allocSchemes, func(p *DeviceParams) *AllocScheme { return &p.PlaneAllocScheme })},
	{key: "write_buffer_flush_pct", unit: num(func(p *DeviceParams) *float64 { return &p.WriteBufferFlushPct })},
	{key: "page_metadata_bytes", unit: num(func(p *DeviceParams) *int { return &p.PageMetadataBytes })},
	{key: "bad_block_pct", unit: num(func(p *DeviceParams) *float64 { return &p.BadBlockPct })},
	{key: "read_retry_limit", unit: num(func(p *DeviceParams) *int { return &p.ReadRetryLimit })},
	{key: "io_merging_enabled", unit: boolean(func(p *DeviceParams) *bool { return &p.IOMergingEnabled })},
	{key: "transaction_sched_ooo", unit: boolean(func(p *DeviceParams) *bool { return &p.TransactionSchedOOO })},
	{key: "initial_occupancy_frac", unit: num(func(p *DeviceParams) *float64 { return &p.InitialOccupancyFrac })},

	{key: "fault_rate", omitEmpty: true, unit: num(func(p *DeviceParams) *float64 { return &p.Faults.Rate })},
	{key: "fault_seed", omitEmpty: true, unit: num(func(p *DeviceParams) *int64 { return &p.Faults.Seed })},
	{key: "fault_die_failures", omitEmpty: true, unit: num(func(p *DeviceParams) *int { return &p.Faults.DieFailures })},
}

// FieldOf returns the field stored under a device-file key. Callers name
// fields by literal keys, so an unknown key is a typo and panics.
func FieldOf(key string) *Field {
	for i := range deviceFields {
		if deviceFields[i].key == key {
			return &deviceFields[i]
		}
	}
	panic("ssd: no device field " + strconv.Quote(key))
}

// enumUnit is the unit of a registry enum field.
type enumUnit interface{ domain() *policyDomain }

// Labels returns a registry enum's names in value order, and nil for
// any other field.
func (f *Field) Labels() []string {
	if e, ok := f.unit.(enumUnit); ok {
		return e.domain().allNames()
	}
	return nil
}

// A FieldError is a "key=value" assignment SetField cannot apply.
type FieldError struct {
	Key string // the whole assignment when it has no '='
	Err error
}

func (e *FieldError) Error() string {
	return "ssd: device field " + strconv.Quote(e.Key) + ": " + strings.TrimPrefix(e.Err.Error(), "ssd: ")
}

// SetField applies one "key=value" assignment to p: a device-file key
// and its file value, decoded by the field's unit as a device file is,
// except that a zero value is kept rather than defaulted. p is not
// validated, and is unchanged on error.
func SetField(p *DeviceParams, assignment string) error {
	key, text, ok := strings.Cut(assignment, "=")
	if !ok {
		return &FieldError{assignment, errors.New("want key=value")}
	}
	i := slices.IndexFunc(deviceFields, func(f Field) bool { return f.key == key })
	if i < 0 {
		return &FieldError{key, errors.New("no such device-file key")}
	}
	file := reflect.New(deviceFields[i].fileType()).Elem()
	if file.Kind() == reflect.String {
		file.SetString(text)
	} else if json.Unmarshal([]byte(text), file.Addr().Interface()) != nil {
		return &FieldError{key, fmt.Errorf("want %s, got %q", file.Type(), text)}
	}
	q := *p
	if err := deviceFields[i].decode(&q, file); err != nil {
		return &FieldError{key, err}
	}
	*p = q
	return nil
}

// DescribeFields renders the device-file keys as CLI help, one per
// line in file order, each enum with its registry names and their
// one-line descriptions.
func DescribeFields() string {
	var b strings.Builder
	for _, f := range deviceFields {
		b.WriteString("\n" + f.key)
		if e, ok := f.unit.(enumUnit); ok {
			b.WriteString(": " + e.domain().describe())
		}
	}
	return b.String()
}

// fileSchema is the device file's struct type, built from the table so
// that encoding/json decodes it by its usual rules: keys match case-
// insensitively, the last duplicate wins and unknown keys are ignored.
var fileSchema = func() reflect.Type {
	fields := make([]reflect.StructField, len(deviceFields))
	for i, f := range deviceFields {
		tag := f.key
		if f.omitEmpty {
			tag += ",omitempty"
		}
		fields[i] = reflect.StructField{Name: "F" + strconv.Itoa(i), Type: f.fileType(),
			Tag: reflect.StructTag(`json:"` + tag + `"`)}
	}
	return reflect.StructOf(fields)
}()

// fileDefaults is DefaultParams in file form: a lenient field's value
// when the file leaves it zero.
var fileDefaults = encodeFile(DefaultParams())

func encodeFile(p DeviceParams) reflect.Value {
	file := reflect.New(fileSchema).Elem()
	for i, f := range deviceFields {
		f.encode(&p, file.Field(i))
	}
	return file
}

// MarshalJSONParams serializes a device configuration.
func MarshalJSONParams(p DeviceParams) ([]byte, error) {
	return json.MarshalIndent(encodeFile(p).Interface(), "", "  ")
}

// UnmarshalJSONParams parses a device configuration and validates it.
// Policy names resolve through the registry, and an unknown name is an
// error rather than a silent default.
func UnmarshalJSONParams(data []byte) (DeviceParams, error) {
	file := reflect.New(fileSchema)
	if err := json.Unmarshal(data, file.Interface()); err != nil {
		return DeviceParams{}, fmt.Errorf("ssd: parse device json: %w", err)
	}
	var p DeviceParams
	for i, f := range deviceFields {
		v := file.Elem().Field(i)
		if f.lenient && v.IsZero() {
			v = fileDefaults.Field(i)
		}
		if err := f.decode(&p, v); err != nil {
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

// fileValue returns a typed pointer to a schema field.
func fileValue[T any](file reflect.Value) *T { return file.Addr().Interface().(*T) }

// number stores a number as it is; a grid value converts by truncation.
type number[T int | int64 | float64] func(*DeviceParams) *T

func num[T int | int64 | float64](at func(*DeviceParams) *T) unit { return number[T](at) }

func (f number[T]) fileType() reflect.Type                     { return reflect.TypeFor[T]() }
func (f number[T]) encode(p *DeviceParams, file reflect.Value) { *fileValue[T](file) = *f(p) }
func (f number[T]) decode(p *DeviceParams, file reflect.Value) error {
	*f(p) = *fileValue[T](file)
	return nil
}
func (f number[T]) Get(p *DeviceParams) float64    { return float64(*f(p)) }
func (f number[T]) Set(p *DeviceParams, v float64) { *f(p) = T(v) }

// byteUnits stores a byte count in units of 1<<n bytes: 10 for KB, 20 for MB.
type byteUnits[T int | int64] struct {
	n  uint
	at func(*DeviceParams) *T
}

func shift[T int | int64](n uint, at func(*DeviceParams) *T) unit { return byteUnits[T]{n, at} }

func (f byteUnits[T]) fileType() reflect.Type { return reflect.TypeFor[T]() }
func (f byteUnits[T]) encode(p *DeviceParams, file reflect.Value) {
	*fileValue[T](file) = *f.at(p) >> f.n
}
func (f byteUnits[T]) decode(p *DeviceParams, file reflect.Value) error {
	*f.at(p) = *fileValue[T](file) << f.n
	return nil
}
func (f byteUnits[T]) Get(p *DeviceParams) float64    { return float64(*f.at(p) >> f.n) }
func (f byteUnits[T]) Set(p *DeviceParams, v float64) { *f.at(p) = T(v) << f.n }

// usec stores a duration in microseconds. Set rounds to the nearest
// nanosecond: truncation would turn 0.003µs into 2.999…ns → 2ns and
// break the decode→encode→decode fixed point FuzzParamsJSON pins.
type usec func(*DeviceParams) *time.Duration

func (f usec) fileType() reflect.Type { return reflect.TypeFor[float64]() }
func (f usec) encode(p *DeviceParams, file reflect.Value) {
	*fileValue[float64](file) = f.Get(p)
}
func (f usec) decode(p *DeviceParams, file reflect.Value) error {
	f.Set(p, *fileValue[float64](file))
	return nil
}
func (f usec) Get(p *DeviceParams) float64    { return float64(*f(p)) / float64(time.Microsecond) }
func (f usec) Set(p *DeviceParams, v float64) { *f(p) = time.Duration(math.Round(v * 1000)) }

// boolean stores a bool; its grid value is 1 for true and 0 for false.
type boolean func(*DeviceParams) *bool

func (f boolean) fileType() reflect.Type                     { return reflect.TypeFor[bool]() }
func (f boolean) encode(p *DeviceParams, file reflect.Value) { *fileValue[bool](file) = *f(p) }
func (f boolean) decode(p *DeviceParams, file reflect.Value) error {
	*f(p) = *fileValue[bool](file)
	return nil
}
func (f boolean) Get(p *DeviceParams) float64 {
	if *f(p) {
		return 1
	}
	return 0
}
func (f boolean) Set(p *DeviceParams, v float64) { *f(p) = v >= 0.5 }

// enum stores a registry enum: its registry name (the type's String) in
// the file, its registry index as a grid value.
type enum[T ~uint8] struct {
	d  *policyDomain
	at func(*DeviceParams) *T
}

func registry[T ~uint8](d *policyDomain, at func(*DeviceParams) *T) unit { return enum[T]{d, at} }

func (f enum[T]) domain() *policyDomain  { return f.d }
func (f enum[T]) fileType() reflect.Type { return reflect.TypeFor[string]() }
func (f enum[T]) encode(p *DeviceParams, file reflect.Value) {
	*fileValue[string](file) = fmt.Sprint(*f.at(p))
}
func (f enum[T]) decode(p *DeviceParams, file reflect.Value) error {
	v, err := f.d.parse(*fileValue[string](file))
	*f.at(p) = T(v)
	return err
}
func (f enum[T]) Get(p *DeviceParams) float64    { return float64(*f.at(p)) }
func (f enum[T]) Set(p *DeviceParams, v float64) { *f.at(p) = T(v) }
