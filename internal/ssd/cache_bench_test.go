package ssd

import "testing"

// BenchmarkDataCache measures one dataCache operation in the three
// shapes a simulation produces: a hit in the Intel 750's CMT, the first
// touch of a region in a CMT that is never filled (so its storage
// grows), and a miss in a full 8192-entry cache (the small replay
// device's CMT size) under each replacement policy.
func BenchmarkDataCache(b *testing.B) {
	p := Intel750()
	const regions = 1 << 16
	b.Run("CMTHit", func(b *testing.B) {
		c := newCMT(&p, 1)
		for r := int64(0); r < regions; r++ {
			c.insert(r*29, r%3 == 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := int64(i*40503) % regions
			c.insert(r*29, i&1 == 0)
		}
	})
	b.Run("FirstTouch", func(b *testing.B) {
		// A fresh CMT every `regions` inserts: the cost of growing its
		// storage is part of each first touch.
		var c *dataCache
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := int64(i % regions)
			if r == 0 {
				c = newCMT(&p, 1)
			}
			c.insert(r*29, i&1 == 0)
		}
	})
	for pol, row := range cachePolicyTable {
		b.Run("MissAtCapacity/"+row.name, func(b *testing.B) {
			const capacity = 8192
			c := newCache(capacity, cachePolicyTable[pol].make(&p))
			for k := int64(0); k < capacity; k++ {
				c.insert(k*29, k%3 == 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.insert(int64(capacity+i)*29, i&1 == 0)
			}
		})
	}
}
