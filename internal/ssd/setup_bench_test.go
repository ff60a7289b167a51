package ssd

import (
	"runtime"
	"testing"

	"autoblox/internal/workload"
)

// BenchmarkSimSetup measures per-simulation set-up on the Intel 750
// reference device: newEngine alone (FTL construction plus the
// warm-up prefill) and a 100-record RunSource, where set-up is nearly
// all of the cost.
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

// TestSetupAllocatesPerBlockNotPerPage pins set-up at O(blocks): the
// prefill leaves the half-full device implicit, so building an engine
// allocates no per-page state. The flat mapping table and the reverse
// maps of the prefilled blocks came to 11.6 MB on the Intel 750.
func TestSetupAllocatesPerBlockNotPerPage(t *testing.T) {
	for name, p := range referenceDevices() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := newEngine(&p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if e.ftl.prefilled == 0 {
			t.Fatalf("%s: prefill fell back to placePage", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: newEngine allocated %d bytes, want under 1 MiB", name, got)
		}
	}
}
