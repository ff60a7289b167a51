package workload

import (
	"fmt"
	"math/rand"
	"time"

	"autoblox/internal/trace"
)

// genSource is a lazy, rewindable generator cursor: requests are derived
// one at a time from the seeded PRNG state, so a trace of any length
// occupies O(streams) memory and Reset re-derives the stream from the
// seed instead of storing it. The draw order in Next is exactly the loop
// body of the original materializing generator, which is what guarantees
// Generate(c, opt) ≡ Materialize(NewSource(c, opt)) bit for bit.
type genSource struct {
	c   Category
	p   profile
	opt Options

	rng            *rand.Rand
	cursors        []uint64
	now            float64 // microseconds
	burstRemaining int
	phaseIdx       int
	emitted        int
}

// NewSource returns a streaming generator for the category. The source
// is deterministic in (c, opt.Seed): every Reset-separated sweep yields
// the identical request sequence.
func NewSource(c Category, opt Options) (trace.Source, error) {
	p, ok := profiles[c]
	if !ok {
		return nil, fmt.Errorf("workload: unknown category %q", c)
	}
	opt.defaults()
	g := &genSource{c: c, p: p, opt: opt}
	g.Reset()
	return g, nil
}

// MustSource is NewSource for known-good categories; it panics on error
// and is intended for examples, tests and benchmarks.
func MustSource(c Category, opt Options) trace.Source {
	src, err := NewSource(c, opt)
	if err != nil {
		panic(err)
	}
	return src
}

// Factory returns a SourceFactory of independent generator cursors,
// each deriving the stream from the seed in O(streams) memory. A
// core.Validator calls it once per trace name and replays the request
// slice it collects from then on (32 B per request); other consumers
// re-derive the stream on every call.
func Factory(c Category, opt Options) (trace.SourceFactory, error) {
	if _, ok := profiles[c]; !ok {
		return nil, fmt.Errorf("workload: unknown category %q", c)
	}
	return func() trace.Source { return MustSource(c, opt) }, nil
}

func (g *genSource) Name() string { return string(g.c) }
func (g *genSource) Err() error   { return nil }

// Reset re-seeds the PRNG and replays the stream-cursor initialization,
// restoring the source to the exact state a fresh NewSource has.
func (g *genSource) Reset() {
	g.rng = rand.New(rand.NewSource(g.opt.Seed ^ int64(hashCategory(g.c))))
	// Stream state: each stream is an independent sequential cursor.
	g.cursors = make([]uint64, g.p.streams)
	for i := range g.cursors {
		g.cursors[i] = uint64(g.rng.Int63n(int64(g.p.spanSectors)))
	}
	g.now = 0
	g.burstRemaining = 0
	g.phaseIdx = 0
	g.emitted = 0
}

func (g *genSource) Next() (trace.Request, bool) {
	if g.emitted >= g.opt.Requests {
		return trace.Request{}, false
	}
	g.emitted++
	p := g.p
	ph := p.phases[g.phaseIdx]

	// Arrival process: bursts of back-to-back requests separated by
	// exponential gaps. Each burst draws its execution phase, so a
	// characterization window sees the category's phase *mixture*
	// (long production traces blend phases the same way), keeping
	// window-level clustering stable across a trace.
	if g.burstRemaining > 0 {
		g.now += g.rng.Float64() * 3 // intra-burst jitter, µs
		g.burstRemaining--
	} else {
		g.phaseIdx = g.rng.Intn(len(p.phases))
		ph = p.phases[g.phaseIdx]
		g.now += g.rng.ExpFloat64() * ph.meanGapUS * float64(ph.burstLen)
		g.burstRemaining = ph.burstLen - 1
	}

	isRead := g.rng.Float64() < ph.readRatio
	sectors := pickSize(g.rng, ph.sizes)

	var lba uint64
	stream := g.rng.Intn(p.streams)
	sequential := g.rng.Float64() < ph.seqProb
	switch {
	case sequential:
		lba = g.cursors[stream]
	case !isRead && ph.writeSeq:
		// Append-style writes go to the stream head too.
		lba = g.cursors[stream]
	case g.rng.Float64() < ph.hotFrac:
		hotSpan := uint64(float64(p.spanSectors) * ph.hotSpanFrac)
		if hotSpan == 0 {
			hotSpan = 1
		}
		lba = uint64(g.rng.Int63n(int64(hotSpan)))
	default:
		lba = uint64(g.rng.Int63n(int64(p.spanSectors)))
	}
	if lba+uint64(sectors) > p.spanSectors {
		lba = p.spanSectors - uint64(sectors)
	}
	if sequential || (!isRead && ph.writeSeq) {
		next := lba + uint64(sectors)
		if next >= p.spanSectors {
			next = uint64(g.rng.Int63n(int64(p.spanSectors / 2)))
		}
		g.cursors[stream] = next
	}

	op := trace.Write
	if isRead {
		op = trace.Read
	} else if g.opt.TrimRatio > 0 && g.rng.Float64() < g.opt.TrimRatio {
		// A trim replaces a write of the same span: hosts discard what
		// they previously wrote. The draw is gated on TrimRatio so the
		// default (no-trim) request stream is bit-identical to before the
		// knob existed.
		op = trace.Trim
	}
	var tag uint32
	if g.opt.Streams > 0 {
		// Reuse the already-drawn stream cursor index, so tagging adds no
		// RNG draws and untagged output stays bit-identical.
		tag = uint32(stream%g.opt.Streams) + 1
	}
	return trace.Request{
		Arrival: time.Duration(g.now * float64(time.Microsecond)),
		LBA:     lba,
		Sectors: sectors,
		Op:      op,
		Stream:  tag,
	}, true
}
