package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by a
// quarter or more over minutes, while two pieces of CPU work run close
// together slow down alike. A run therefore times a fixed kernel that
// belongs to the benchmark (map updates, a sort, a hash; no allocation
// while timed) between its operations, and reports every timing in
// reference seconds: wall time × refPass / the kernel's median time in
// the passes around and during it.
// A change to the program cannot change the kernel, so a faster program
// still reads faster; a slower host reads the same.

// refPass is the kernel's time that reference seconds assume: the
// kernel's median on the machine the bounds were set on (2 vCPUs,
// "Intel(R) Xeon(R) Processor", Go 1.24).
const refPass = 58 * time.Millisecond

// calibrator owns the kernel's preallocated state and its timings.
type calibrator struct {
	table  map[uint64]uint64
	xs     []float64
	buf    []byte
	passes []float64 // seconds per timed pass
	sink   byte
}

const (
	calibKeys    = 1 << 15
	calibUpdates = 400000
	calibSort    = 250000
	calibHash    = 1 << 21
)

func newCalibrator() *calibrator {
	c := &calibrator{
		table: make(map[uint64]uint64, calibKeys),
		xs:    make([]float64, calibSort),
		buf:   make([]byte, calibHash),
	}
	for k := uint64(0); k < calibKeys; k++ {
		c.table[k] = 0
	}
	c.pass() // untimed: fault the pages in
	return c
}

// pass runs the kernel once and returns its duration. Every input is a
// fixed xorshift sequence, so each pass does identical work.
func (c *calibrator) pass() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < calibUpdates; i++ {
		c.table[next()&(calibKeys-1)] += uint64(i)
	}
	for i := range c.xs {
		c.xs[i] = float64(next()>>11) / (1 << 53)
	}
	sort.Float64s(c.xs)
	for i := range c.buf {
		c.buf[i] = byte(next())
	}
	sum := sha256.Sum256(c.buf)
	c.sink ^= sum[0]
	return time.Since(t0)
}

// calibPasses is the number of timed passes in a block.
const calibPasses = 5

// block records calibPasses timed passes; runs call it before their
// first operation and after every operation.
func (c *calibrator) block() {
	for i := 0; i < calibPasses; i++ {
		c.sample()
	}
}

// sample times and records one pass. Operations call it at their own
// pauses (between tuner iterations, between replayed files), where none
// of their work is running, and leave its duration out of their time.
func (c *calibrator) sample() time.Duration {
	d := c.pass()
	c.passes = append(c.passes, d.Seconds())
	return d
}

// mark returns where the passes of the next operation start: with the
// block just before it.
func (c *calibrator) mark() int { return len(c.passes) - calibPasses }

// factor converts host seconds of an operation into reference seconds,
// using the median of every pass from mark to now: the block before it,
// the samples taken during it and the block after it. The host's speed
// drifts within a run too.
func (c *calibrator) factor(mark int) float64 {
	return refPass.Seconds() / median(c.passes[mark:])
}

// scale converts host seconds into reference seconds with the run's
// median pass, for figures not tied to one operation.
func (c *calibrator) scale() float64 {
	return refPass.Seconds() / median(c.passes)
}

// samples keeps one timing's host seconds and, once the block after
// each operation has been timed, the same values in reference seconds.
type samples struct{ host, ref []float64 }

func (s *samples) add(host float64) { s.host = append(s.host, host) }

// settle converts the samples added since the last settle with factor f.
func (s *samples) settle(f float64) {
	for _, x := range s.host[len(s.ref):] {
		s.ref = append(s.ref, x*f)
	}
}
