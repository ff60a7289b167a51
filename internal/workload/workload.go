// Package workload generates synthetic block I/O traces for the workload
// categories evaluated in the paper (Tables 2 and 3).
//
// The paper drives AutoBlox with production traces (YCSB/RocksDB, TPCC on
// SQL Server, UMass WebSearch, MapReduce, LiveMaps, cloud storage,
// recommendation serving, plus six "new" workloads). Those traces are not
// redistributable, so each category is substituted by a parameterized
// generator whose profile reproduces the properties the paper relies on:
// read/write mix, I/O size distribution, sequentiality, spatial locality
// (hot spots), arrival intensity and burstiness, and multi-phase
// behaviour. Categories are distinct by construction, which is what the
// clustering (§3.1) and per-category tuning (§4.2) require.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"autoblox/internal/trace"
)

// Category identifies one workload family.
type Category string

// The seven studied workload categories (Table 2).
const (
	Recomm         Category = "Recomm"
	KVStore        Category = "KVStore"
	Database       Category = "Database"
	WebSearch      Category = "WebSearch"
	BatchAnalytics Category = "BatchAnalytics"
	CloudStorage   Category = "CloudStorage"
	LiveMaps       Category = "LiveMaps"
)

// The six new workload categories (Table 3).
const (
	VDI        Category = "VDI"
	FIU        Category = "FIU"
	RadiusAuth Category = "RadiusAuth"
	LevelDB    Category = "LevelDB"
	MySQL      Category = "MySQL"
	HDFS       Category = "HDFS"
)

// Studied returns the Table 2 categories in the paper's column order.
func Studied() []Category {
	return []Category{Recomm, KVStore, Database, WebSearch, BatchAnalytics, CloudStorage, LiveMaps}
}

// New returns the Table 3 categories.
func New() []Category {
	return []Category{LevelDB, MySQL, HDFS, VDI, FIU, RadiusAuth}
}

// All returns every known category.
func All() []Category { return append(Studied(), New()...) }

// sizeClass is one bucket of the I/O size distribution.
type sizeClass struct {
	sectors uint32
	weight  float64
}

// phase describes one execution phase of a workload; long traces cycle
// through phases, which is how the generators cover "multiple execution
// phases" as the paper's multi-hour traces do.
type phase struct {
	readRatio   float64     // probability a request is a read
	seqProb     float64     // probability the next request continues the current stream
	hotFrac     float64     // fraction of random accesses that hit the hot region
	hotSpanFrac float64     // hot region size as a fraction of the address span
	meanGapUS   float64     // mean exponential inter-arrival, microseconds
	burstLen    int         // requests per arrival burst (1 = no bursting)
	sizes       []sizeClass // I/O size mix
	writeSeq    bool        // writes are append-style (log/compaction)
}

// profile is a full workload description.
type profile struct {
	spanSectors uint64 // addressable span touched by the workload
	phases      []phase
	streams     int // number of concurrent sequential streams
}

// profiles maps each category to its generator profile. Numbers follow
// the qualitative descriptions in the paper: WebSearch is 99.9% read,
// small, random, latency-critical; BatchAnalytics is 97.8% read with
// large scans; KVStore and LiveMaps are I/O-intensive and chip-layout
// sensitive; CloudStorage is large sequential; Database (TPCC) is small
// random mixed; Recomm is read-mostly medium random.
var profiles = map[Category]profile{
	WebSearch: {
		spanSectors: 192 << 21, // 192 GiB in sectors
		streams:     1,
		phases: []phase{{
			readRatio: 0.999, seqProb: 0.02, hotFrac: 0.55, hotSpanFrac: 0.05,
			meanGapUS: 60, burstLen: 2, writeSeq: false,
			sizes: []sizeClass{{16, 0.75}, {8, 0.2}, {32, 0.05}},
		}},
	},
	BatchAnalytics: {
		spanSectors: 448 << 21,
		streams:     4,
		phases: []phase{
			{
				readRatio: 0.978, seqProb: 0.93, hotFrac: 0.1, hotSpanFrac: 0.2,
				meanGapUS: 95, burstLen: 8, writeSeq: true,
				sizes: []sizeClass{{512, 0.6}, {256, 0.3}, {1024, 0.1}},
			},
			{
				readRatio: 0.97, seqProb: 0.85, hotFrac: 0.2, hotSpanFrac: 0.25,
				meanGapUS: 100, burstLen: 4, writeSeq: true,
				sizes: []sizeClass{{256, 0.7}, {128, 0.3}},
			},
		},
	},
	KVStore: {
		spanSectors: 320 << 21,
		streams:     2,
		phases: []phase{
			{ // read-heavy point lookups with compaction writes
				readRatio: 0.72, seqProb: 0.12, hotFrac: 0.65, hotSpanFrac: 0.08,
				meanGapUS: 24, burstLen: 4, writeSeq: true,
				sizes: []sizeClass{{8, 0.55}, {16, 0.25}, {128, 0.15}, {512, 0.05}},
			},
			{ // compaction-dominated phase
				readRatio: 0.45, seqProb: 0.6, hotFrac: 0.3, hotSpanFrac: 0.15,
				meanGapUS: 40, burstLen: 10, writeSeq: true,
				sizes: []sizeClass{{256, 0.5}, {512, 0.3}, {8, 0.2}},
			},
		},
	},
	Database: {
		spanSectors: 256 << 21,
		streams:     1,
		phases: []phase{
			{ // OLTP mix: 8KB pages, random, ~60/40
				readRatio: 0.62, seqProb: 0.06, hotFrac: 0.5, hotSpanFrac: 0.1,
				meanGapUS: 3, burstLen: 2, writeSeq: false,
				sizes: []sizeClass{{16, 0.85}, {8, 0.1}, {64, 0.05}},
			},
			{ // log-flush phase
				readRatio: 0.3, seqProb: 0.5, hotFrac: 0.2, hotSpanFrac: 0.02,
				meanGapUS: 2.5, burstLen: 6, writeSeq: true,
				sizes: []sizeClass{{8, 0.6}, {16, 0.4}},
			},
		},
	},
	CloudStorage: {
		spanSectors: 640 << 21,
		streams:     6,
		phases: []phase{{
			readRatio: 0.55, seqProb: 0.88, hotFrac: 0.15, hotSpanFrac: 0.3,
			meanGapUS: 185, burstLen: 12, writeSeq: true,
			sizes: []sizeClass{{1024, 0.45}, {512, 0.35}, {2048, 0.2}},
		}},
	},
	LiveMaps: {
		spanSectors: 512 << 21,
		streams:     3,
		phases: []phase{
			{ // tile serving: intense medium reads
				readRatio: 0.85, seqProb: 0.35, hotFrac: 0.7, hotSpanFrac: 0.12,
				meanGapUS: 20, burstLen: 6, writeSeq: false,
				sizes: []sizeClass{{64, 0.5}, {128, 0.3}, {32, 0.2}},
			},
			{ // tile rebuild: heavy sequential writes
				readRatio: 0.35, seqProb: 0.8, hotFrac: 0.2, hotSpanFrac: 0.3,
				meanGapUS: 80, burstLen: 10, writeSeq: true,
				sizes: []sizeClass{{512, 0.6}, {256, 0.4}},
			},
		},
	},
	Recomm: {
		spanSectors: 288 << 21,
		streams:     1,
		phases: []phase{{
			readRatio: 0.9, seqProb: 0.15, hotFrac: 0.45, hotSpanFrac: 0.2,
			meanGapUS: 32, burstLen: 3, writeSeq: false,
			sizes: []sizeClass{{32, 0.4}, {64, 0.35}, {16, 0.25}},
		}},
	},

	// --- Table 3: new workloads. LevelDB, MySQL and HDFS are "new
	// traces" of existing categories (KVStore, Database, CloudStorage
	// respectively): same family, shifted parameters.
	LevelDB: {
		spanSectors: 280 << 21,
		streams:     2,
		phases: []phase{
			{
				readRatio: 0.68, seqProb: 0.18, hotFrac: 0.6, hotSpanFrac: 0.1,
				meanGapUS: 40, burstLen: 3, writeSeq: true,
				sizes: []sizeClass{{8, 0.5}, {16, 0.3}, {256, 0.2}},
			},
			{
				readRatio: 0.5, seqProb: 0.55, hotFrac: 0.35, hotSpanFrac: 0.18,
				meanGapUS: 45, burstLen: 8, writeSeq: true,
				sizes: []sizeClass{{512, 0.45}, {128, 0.35}, {8, 0.2}},
			},
		},
	},
	MySQL: {
		spanSectors: 384 << 21,
		streams:     2,
		phases: []phase{{ // TPCH: scan-heavy analytic queries
			readRatio: 0.93, seqProb: 0.7, hotFrac: 0.3, hotSpanFrac: 0.25,
			meanGapUS: 20, burstLen: 5, writeSeq: false,
			sizes: []sizeClass{{128, 0.5}, {256, 0.3}, {16, 0.2}},
		}},
	},
	HDFS: {
		spanSectors: 768 << 21,
		streams:     5,
		phases: []phase{{
			readRatio: 0.6, seqProb: 0.92, hotFrac: 0.1, hotSpanFrac: 0.35,
			meanGapUS: 255, burstLen: 16, writeSeq: true,
			sizes: []sizeClass{{2048, 0.5}, {1024, 0.3}, {512, 0.2}},
		}},
	},
	VDI: {
		spanSectors: 400 << 21,
		streams:     2,
		phases: []phase{
			{ // boot storm: bursty reads
				readRatio: 0.8, seqProb: 0.4, hotFrac: 0.75, hotSpanFrac: 0.06,
				meanGapUS: 15, burstLen: 20, writeSeq: false,
				sizes: []sizeClass{{64, 0.5}, {8, 0.3}, {128, 0.2}},
			},
			{ // steady state: write-tilted small random
				readRatio: 0.4, seqProb: 0.1, hotFrac: 0.5, hotSpanFrac: 0.12,
				meanGapUS: 70, burstLen: 2, writeSeq: false,
				sizes: []sizeClass{{8, 0.6}, {16, 0.25}, {32, 0.15}},
			},
		},
	},
	FIU: {
		spanSectors: 160 << 21,
		streams:     1,
		phases: []phase{{ // write-dominated small random (FIU SRCMap-style)
			readRatio: 0.22, seqProb: 0.08, hotFrac: 0.6, hotSpanFrac: 0.05,
			meanGapUS: 35, burstLen: 2, writeSeq: false,
			sizes: []sizeClass{{8, 0.7}, {16, 0.2}, {64, 0.1}},
		}},
	},
	RadiusAuth: {
		spanSectors: 96 << 21,
		streams:     1,
		phases: []phase{{ // periodic tiny log writes with rare reads
			readRatio: 0.12, seqProb: 0.45, hotFrac: 0.85, hotSpanFrac: 0.01,
			meanGapUS: 30, burstLen: 4, writeSeq: true,
			sizes: []sizeClass{{8, 0.85}, {16, 0.15}},
		}},
	},
}

// Options controls trace generation.
type Options struct {
	// Requests is the number of I/O requests to generate (default 30000).
	Requests int
	// Seed drives the generator; equal seeds give identical traces.
	Seed int64
	// TrimRatio is the probability that a would-be write is emitted as a
	// TRIM instead (0 = no trims, the historical behavior). The trimmed
	// span follows the phase's write placement, modeling hosts that
	// discard what they previously wrote.
	TrimRatio float64
	// Streams, when positive, stamps each request with a multi-stream
	// tag in [1, Streams], derived from the generator's internal
	// sequential-stream cursor so one logical stream keeps one tag.
	// Zero leaves requests untagged (the historical behavior).
	Streams int
}

func (o *Options) defaults() {
	if o.Requests <= 0 {
		o.Requests = 30000
	}
	if o.TrimRatio < 0 {
		o.TrimRatio = 0
	}
	if o.TrimRatio > 1 {
		o.TrimRatio = 1
	}
}

// Generate produces a synthetic trace for the category by draining the
// streaming generator, so the materialized and streamed paths share one
// implementation and are bit-for-bit identical by construction. Callers
// that never need random access should use NewSource directly.
func Generate(c Category, opt Options) (*trace.Trace, error) {
	src, err := NewSource(c, opt)
	if err != nil {
		return nil, err
	}
	return trace.Materialize(src)
}

// MustGenerate is Generate for known-good categories; it panics on error
// and is intended for examples and benchmarks.
func MustGenerate(c Category, opt Options) *trace.Trace {
	tr, err := Generate(c, opt)
	if err != nil {
		panic(err)
	}
	return tr
}

func pickSize(rng *rand.Rand, sizes []sizeClass) uint32 {
	var total float64
	for _, s := range sizes {
		total += s.weight
	}
	t := rng.Float64() * total
	var cum float64
	for _, s := range sizes {
		cum += s.weight
		if t <= cum {
			return s.sectors
		}
	}
	return sizes[len(sizes)-1].sectors
}

func hashCategory(c Category) uint32 {
	var h uint32 = 2166136261
	for _, b := range []byte(c) {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// Describe returns a stable human-readable summary of a category's
// profile (for documentation and the tracegen CLI).
func Describe(c Category) string {
	p, ok := profiles[c]
	if !ok {
		return "unknown"
	}
	ph := p.phases[0]
	return fmt.Sprintf("%s: %.0f%% read, seq %.0f%%, mean gap %.0fµs, %d phase(s), span %.0f GiB",
		c, ph.readRatio*100, ph.seqProb*100, ph.meanGapUS, len(p.phases),
		float64(p.spanSectors)*512/math.Pow(2, 30))
}
