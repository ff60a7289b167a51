package ssd

import (
	"testing"
	"testing/quick"
)

func TestAllocSchemeNames(t *testing.T) {
	for i := 0; i < NumAllocSchemes; i++ {
		s := AllocScheme(i)
		if !s.valid() {
			t.Fatalf("scheme %d invalid", i)
		}
		parsed, err := allocSchemes.parse(s.String())
		if err != nil {
			t.Fatalf("allocSchemes.parse(%s): %v", s, err)
		}
		if AllocScheme(parsed) != s {
			t.Fatalf("round trip %s -> %s", s, AllocScheme(parsed))
		}
	}
	if AllocScheme(200).valid() {
		t.Fatal("200 should be invalid")
	}
	if _, err := allocSchemes.parse("XXXX"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestAllocatorCoversAllPlanes(t *testing.T) {
	p := DefaultParams()
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 4, 3, 2, 2
	for scheme := 0; scheme < NumAllocSchemes; scheme++ {
		p.PlaneAllocScheme = AllocScheme(scheme)
		a := newAllocator(&p)
		total := p.TotalPlanes()
		seen := make(map[planeID]bool)
		for c := uint64(0); c < uint64(total); c++ {
			ch, chip, die, plane := a.locate(c)
			if ch >= p.Channels || chip >= p.ChipsPerChannel || die >= p.DiesPerChip || plane >= p.PlanesPerDie {
				t.Fatalf("scheme %s: coordinate out of range", p.PlaneAllocScheme)
			}
			seen[a.planeIndex(ch, chip, die, plane)] = true
		}
		if len(seen) != total {
			t.Fatalf("scheme %s: one stripe cycle covered %d/%d planes", p.PlaneAllocScheme, len(seen), total)
		}
	}
}

func TestChannelFirstSchemeStripesChannels(t *testing.T) {
	p := DefaultParams()
	p.PlaneAllocScheme = AllocCWDP
	a := newAllocator(&p)
	// Consecutive counters must advance the channel first.
	for c := uint64(0); c < uint64(p.Channels); c++ {
		ch, _, _, _ := a.locate(c)
		if ch != int(c) {
			t.Fatalf("CWDP: counter %d landed on channel %d", c, ch)
		}
	}
}

func TestChannelOf(t *testing.T) {
	f := func(chRaw, chipRaw, dieRaw, plRaw uint8) bool {
		p := DefaultParams()
		p.Channels, p.ChipsPerChannel = 1+int(chRaw%8), 1+int(chipRaw%4)
		p.DiesPerChip, p.PlanesPerDie = 1+int(dieRaw%4), 1+int(plRaw%4)
		a := newAllocator(&p)
		for ch := 0; ch < p.Channels; ch++ {
			for chip := 0; chip < p.ChipsPerChannel; chip++ {
				for die := 0; die < p.DiesPerChip; die++ {
					for pl := 0; pl < p.PlanesPerDie; pl++ {
						id := a.planeIndex(ch, chip, die, pl)
						if a.channelOf(id) != ch {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
