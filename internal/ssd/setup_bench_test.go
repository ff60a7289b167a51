package ssd

import (
	"testing"

	"autoblox/internal/workload"
)

// BenchmarkSimSetup measures per-simulation set-up on the Intel 750
// reference device: newEngine alone (FTL construction plus the
// warm-up prefill), bulkPrefill alone on a fresh FTL, and a 100-record
// RunSource, where set-up is nearly all of the cost.
func BenchmarkSimSetup(b *testing.B) {
	p := Intel750()
	b.Run("newEngine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := newEngine(&p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prefill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f, err := newFTL(&p)
			if err != nil {
				b.Fatal(err)
			}
			n := int64(float64(f.logicalPages) * p.InitialOccupancyFrac)
			b.StartTimer()
			if !f.bulkPrefill(n) {
				b.Fatal("bulk prefill declined")
			}
		}
	})
	b.Run("RunSource100", func(b *testing.B) {
		sim, err := NewSimulator(p)
		if err != nil {
			b.Fatal(err)
		}
		opt := workload.Options{Requests: 100, Seed: 11}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunSource(workload.MustSource(workload.Database, opt)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
