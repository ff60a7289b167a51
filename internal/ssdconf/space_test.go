package ssdconf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"autoblox/internal/ssd"
)

func defaultSpace() *Space { return NewSpace(DefaultConstraints()) }

func TestSpaceHas52Params(t *testing.T) {
	s := defaultSpace()
	if s.NumParams() != 52 {
		t.Fatalf("NumParams = %d, want 52 (the paper's 48 plus the host-interface model params)", s.NumParams())
	}
	var numeric, boolean, categorical int
	for _, p := range s.Params {
		switch p.Kind {
		case Boolean:
			boolean++
		case Categorical:
			categorical++
		default:
			numeric++
		}
	}
	if numeric != 38 {
		t.Fatalf("numeric params = %d, want 38 (Fig. 4's 35 plus zone size, open-zone and stream counts)", numeric)
	}
	if boolean != 8 || categorical != 6 {
		t.Fatalf("boolean=%d categorical=%d, want 8/6 (HostInterfaceModel is categorical too)", boolean, categorical)
	}
}

// Every categorical parameter must expose the policy registry's label
// set verbatim: same length as its grid, and grid values 0..n-1 so grid
// index == registry wire value.
func TestCategoricalLabelsMatchRegistry(t *testing.T) {
	want := map[string][]string{
		"PlaneAllocationScheme": ssd.FieldOf("plane_alloc_scheme").Labels(),
		"CachePolicy":           ssd.FieldOf("cache_policy").Labels(),
		"GCPolicy":              ssd.FieldOf("gc_policy").Labels(),
		"HostInterfaceModel":    ssd.FieldOf("host_ifc").Labels(),
		"Interface":             ssd.FieldOf("interface").Labels(),
		"FlashType":             ssd.FieldOf("flash_type").Labels(),
	}
	s := defaultSpace()
	seen := 0
	for _, p := range s.Params {
		if p.Kind != Categorical {
			continue
		}
		seen++
		names, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected categorical %q", p.Name)
			continue
		}
		if len(p.Labels) != len(names) || len(p.Values) != len(names) {
			t.Errorf("%s: %d labels / %d values, registry has %d names", p.Name, len(p.Labels), len(p.Values), len(names))
			continue
		}
		for i, n := range names {
			if p.Labels[i] != n {
				t.Errorf("%s label[%d] = %q, registry says %q", p.Name, i, p.Labels[i], n)
			}
			if p.Values[i] != float64(i) {
				t.Errorf("%s value[%d] = %g, want %d", p.Name, i, p.Values[i], i)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d categoricals, want %d", seen, len(want))
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Continuous: "continuous", Discrete: "discrete", Boolean: "boolean", Categorical: "categorical"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func TestSearchSpaceIsHuge(t *testing.T) {
	s := defaultSpace()
	if s.SearchSpaceSize() < 1e9 {
		t.Fatalf("search space %g should be in the billions", s.SearchSpaceSize())
	}
	w := NewWhatIfSpace(DefaultConstraints())
	if w.SearchSpaceSize() <= s.SearchSpaceSize() {
		t.Fatal("what-if space should be larger than commodity space")
	}
}

func TestRoundTripDevice(t *testing.T) {
	s := defaultSpace()
	base := ssd.Intel750()
	cfg := s.FromDevice(base)
	d := s.ToDevice(cfg)
	if d.Channels != base.Channels || d.ChipsPerChannel != base.ChipsPerChannel ||
		d.DiesPerChip != base.DiesPerChip || d.PlanesPerDie != base.PlanesPerDie {
		t.Fatalf("layout round trip failed: %d/%d/%d/%d", d.Channels, d.ChipsPerChannel, d.DiesPerChip, d.PlanesPerDie)
	}
	if d.HostInterface != ssd.NVMe || d.FlashType != ssd.MLC {
		t.Fatal("constraints not applied in FromDevice")
	}
	if d.DataCacheBytes != base.DataCacheBytes {
		t.Fatalf("DataCacheBytes %d != %d", d.DataCacheBytes, base.DataCacheBytes)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("materialized device invalid: %v", err)
	}
}

func TestIntel750SatisfiesDefaultConstraints(t *testing.T) {
	s := defaultSpace()
	cfg := s.FromDevice(ssd.Intel750())
	if err := s.CheckConstraints(cfg); err != nil {
		t.Fatalf("Intel 750 should satisfy 512GB/NVMe/MLC: %v", err)
	}
}

func TestValueAccessors(t *testing.T) {
	s := defaultSpace()
	cfg := s.FromDevice(ssd.Intel750())
	v, err := s.ValueByName(cfg, "FlashChannelCount")
	if err != nil || v != 12 {
		t.Fatalf("FlashChannelCount = %g, %v", v, err)
	}
	if _, err := s.ValueByName(cfg, "Nope"); err == nil {
		t.Fatal("expected unknown-parameter error")
	}
	if err := s.SetByName(cfg, "FlashChannelCount", 32); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ValueByName(cfg, "FlashChannelCount"); v != 32 {
		t.Fatalf("SetByName failed: %g", v)
	}
}

func TestCheckConstraintsViolations(t *testing.T) {
	s := defaultSpace()
	cfg := s.FromDevice(ssd.Intel750())

	bad := cfg.Clone()
	i, _ := s.ParamIndex("Interface")
	bad[i] = int(ssd.SATA)
	if err := s.CheckConstraints(bad); err == nil {
		t.Fatal("interface violation undetected")
	}

	bad = cfg.Clone()
	i, _ = s.ParamIndex("FlashChannelCount")
	bad[i] = 0 // 1 channel: capacity collapses
	if err := s.CheckConstraints(bad); err == nil {
		t.Fatal("capacity violation undetected")
	}

	if err := s.CheckConstraints(cfg[:3]); err == nil {
		t.Fatal("length mismatch undetected")
	}
}

func TestRepairCapacity(t *testing.T) {
	s := defaultSpace()
	cfg := s.FromDevice(ssd.Intel750())
	i, _ := s.ParamIndex("FlashChannelCount")
	cfg[i] = len(s.Params[i].Values) - 1 // 32 channels: capacity overshoots
	if s.CapacityOK(cfg) {
		t.Skip("capacity unexpectedly OK")
	}
	if !s.RepairCapacity(cfg) {
		t.Fatal("repair failed for a repairable config")
	}
	if !s.CapacityOK(cfg) {
		t.Fatal("repair reported success but capacity still off")
	}
	if cfg[i] != len(s.Params[i].Values)-1 {
		t.Fatal("repair must not undo the tuned axis")
	}
}

func TestNeighborsRespectConstraints(t *testing.T) {
	s := defaultSpace()
	cfg := s.FromDevice(ssd.Intel750())
	ns := s.Neighbors(cfg)
	if len(ns) == 0 {
		t.Fatal("no neighbors found")
	}
	ifIdx, _ := s.ParamIndex("Interface")
	ftIdx, _ := s.ParamIndex("FlashType")
	for _, n := range ns {
		if err := s.CheckConstraints(n); err != nil {
			t.Fatalf("neighbor violates constraints: %v", err)
		}
		if n[ifIdx] != int(ssd.NVMe) || n[ftIdx] != int(ssd.MLC) {
			t.Fatal("neighbor changed a constrained parameter")
		}
		if Equal(n, cfg) {
			t.Fatal("neighbor equals origin")
		}
	}
}

func TestNeighborsOfSingleAxis(t *testing.T) {
	s := defaultSpace()
	cfg := s.FromDevice(ssd.Intel750())
	qd, _ := s.ParamIndex("QueueDepth")
	ns := s.NeighborsOf(cfg, qd)
	if len(ns) != 2 {
		t.Fatalf("interior grid point should have 2 neighbors, got %d", len(ns))
	}
	for _, n := range ns {
		diff := 0
		for i := range n {
			if n[i] != cfg[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("single-axis neighbor changed %d axes", diff)
		}
	}
	// Categorical axis enumerates all alternatives.
	alloc, _ := s.ParamIndex("PlaneAllocationScheme")
	ns = s.NeighborsOf(cfg, alloc)
	if len(ns) != ssd.NumAllocSchemes-1 {
		t.Fatalf("categorical neighbors = %d, want %d", len(ns), ssd.NumAllocSchemes-1)
	}
	// Non-tunable axis has none.
	ifIdx, _ := s.ParamIndex("Interface")
	if len(s.NeighborsOf(cfg, ifIdx)) != 0 {
		t.Fatal("non-tunable parameter should have no neighbors")
	}
}

func TestVectorEncoding(t *testing.T) {
	s := defaultSpace()
	cfg := s.FromDevice(ssd.Intel750())
	v := s.Vector(cfg)
	want := 0
	for _, p := range s.Params {
		if p.Kind == Categorical {
			want += len(p.Values)
		} else {
			want++
		}
	}
	if len(v) != want {
		t.Fatalf("vector len %d, want %d (one-hot categoricals)", len(v), want)
	}
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("vector[%d] = %g outside [0,1]", i, x)
		}
	}
	// One-hot blocks sum to 1 per categorical (alloc 16 + cache 4 +
	// gc 3 + interface 2 + flash 3 trailing slots).
	catLen := len(ssd.FieldOf("plane_alloc_scheme").Labels()) + len(ssd.FieldOf("cache_policy").Labels()) +
		len(ssd.FieldOf("gc_policy").Labels()) + len(ssd.FieldOf("interface").Labels()) + len(ssd.FieldOf("flash_type").Labels())
	var catSum float64
	for _, x := range v[len(v)-catLen:] {
		catSum += x
	}
	if catSum != 5 {
		t.Fatalf("categorical one-hot sum = %g, want 5", catSum)
	}
}

func TestManhattanDistance(t *testing.T) {
	s := defaultSpace()
	a := s.FromDevice(ssd.Intel750())
	if ManhattanDistance(s, a, a) != 0 {
		t.Fatal("self distance nonzero")
	}
	b := a.Clone()
	qd, _ := s.ParamIndex("QueueDepth")
	b[qd] += 2
	alloc, _ := s.ParamIndex("PlaneAllocationScheme")
	b[alloc] = (a[alloc] + 3) % ssd.NumAllocSchemes
	if d := ManhattanDistance(s, a, b); d != 3 {
		t.Fatalf("distance = %d, want 3 (2 numeric steps + 1 categorical)", d)
	}
}

func TestConfigKeyUnique(t *testing.T) {
	s := defaultSpace()
	a := s.FromDevice(ssd.Intel750())
	b := a.Clone()
	if a.Key() != b.Key() {
		t.Fatal("equal configs, different keys")
	}
	qd, _ := s.ParamIndex("QueueDepth")
	b[qd]++
	if a.Key() == b.Key() {
		t.Fatal("different configs, same key")
	}
}

func TestFlashTypeChangesLatencyGrids(t *testing.T) {
	slcCons := DefaultConstraints()
	slcCons.Flash = ssd.SLC
	slc := NewSpace(slcCons)
	mlc := defaultSpace()
	si, _ := slc.ParamIndex("PageReadLatency")
	mi, _ := mlc.ParamIndex("PageReadLatency")
	if slc.Params[si].Values[0] >= mlc.Params[mi].Values[0] {
		t.Fatal("SLC read-latency grid should start below MLC's")
	}
}

// Property: repaired random layout mutations stay inside the capacity
// band and keep the mutated axis.
func TestRepairProperty(t *testing.T) {
	s := defaultSpace()
	base := s.FromDevice(ssd.Intel750())
	layout := []string{"FlashChannelCount", "ChipNoPerChannel", "DieNoPerChip", "PlaneNoPerDie"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := base.Clone()
		name := layout[rng.Intn(len(layout))]
		i, _ := s.ParamIndex(name)
		cfg[i] = rng.Intn(len(s.Params[i].Values))
		want := cfg[i]
		if s.RepairCapacity(cfg) {
			return s.CapacityOK(cfg) && cfg[i] == want
		}
		return true // unrepairable is acceptable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property, on the commodity and the what-if space: for any in-range
// configuration, ToDevice yields a Validate-clean device, FromDevice
// inverts it on every parameter with a device field, CapacityBytes is
// the device's capacity, and Neighbors is NeighborsOf over every axis in
// index order.
func TestToDeviceAlwaysValidProperty(t *testing.T) {
	// Parameters with no device field; FromDevice leaves them at 0.
	noField := map[string]bool{"CompressionEnabled": true}
	for _, s := range []*Space{defaultSpace(), NewWhatIfSpace(DefaultConstraints())} {
		for _, p := range s.Params {
			if (p.field == nil) != noField[p.Name] {
				t.Fatalf("%s: has device field = %v, want %v", p.Name, p.field != nil, !noField[p.Name])
			}
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			cfg := make(Config, len(s.Params))
			for i, p := range s.Params {
				cfg[i] = rng.Intn(len(p.Values))
			}
			s.ApplyConstraints(cfg)
			d := s.ToDevice(cfg)
			if err := d.Validate(); err != nil {
				t.Logf("ToDevice: %v", err)
				return false
			}
			back := s.FromDevice(d)
			for i, p := range s.Params {
				if !noField[p.Name] && back[i] != cfg[i] {
					t.Logf("%s: FromDevice(ToDevice) index %d, want %d", p.Name, back[i], cfg[i])
					return false
				}
			}
			if got, want := s.CapacityBytes(cfg), d.CapacityBytes(); got != want {
				t.Logf("CapacityBytes = %d, device has %d", got, want)
				return false
			}
			// Most random layouts miss the capacity band and have few
			// neighbours; compare the walks at a repaired point.
			s.RepairCapacity(cfg)
			var each []Config
			for i := range s.Params {
				each = append(each, s.NeighborsOf(cfg, i)...)
			}
			all := s.Neighbors(cfg)
			if len(all) != len(each) {
				t.Logf("Neighbors gave %d configs, NeighborsOf over every axis %d", len(all), len(each))
				return false
			}
			for k := range all {
				if !Equal(all[k], each[k]) {
					t.Logf("neighbour %d differs", k)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWhatIfSpaceStrides(t *testing.T) {
	w := NewWhatIfSpace(DefaultConstraints())
	i, _ := w.ParamIndex("PageProgramLatency")
	p := w.Params[i]
	if len(p.Values) < 100 {
		t.Skip("grid not fine in this configuration")
	}
	stride := p.Stride()
	if stride < 10 {
		t.Fatalf("fine grid stride %d too small to traverse in bounded moves", stride)
	}
	// A stride move changes the value meaningfully (>1% of the range).
	span := p.Values[len(p.Values)-1] - p.Values[0]
	if step := p.Values[stride] - p.Values[0]; step < span/100 {
		t.Fatalf("stride step %g too small vs span %g", step, span)
	}
	// Small grids keep stride 1.
	j, _ := w.ParamIndex("DieNoPerChip")
	if w.Params[j].Stride() != 1 {
		t.Fatalf("small grid stride = %d", w.Params[j].Stride())
	}
}

func TestWhatIfTunability(t *testing.T) {
	c := defaultSpace()
	w := NewWhatIfSpace(DefaultConstraints())
	// Flash-silicon parameters are constrained in commodity, tunable in
	// what-if.
	for _, name := range []string{"PageReadLatency", "PageProgramLatency", "BlockEraseLatency",
		"ChannelTransferRate", "ChannelWidth", "ECCLatency", "PCIeLaneBandwidth"} {
		ci, _ := c.ParamIndex(name)
		wi, _ := w.ParamIndex(name)
		if c.Params[ci].Tunable {
			t.Fatalf("%s should be fixed in the commodity space", name)
		}
		if !w.Params[wi].Tunable {
			t.Fatalf("%s should be tunable in the what-if space", name)
		}
	}
	// Layout axes are tunable in both.
	for _, name := range []string{"FlashChannelCount", "DataCacheSize", "QueueDepth"} {
		ci, _ := c.ParamIndex(name)
		if !c.Params[ci].Tunable {
			t.Fatalf("%s should be tunable in the commodity space", name)
		}
	}
}

func TestManhattanCountsStrideUnits(t *testing.T) {
	w := NewWhatIfSpace(DefaultConstraints())
	a := w.FromDevice(ssd.Intel750())
	b := a.Clone()
	i, _ := w.ParamIndex("PageProgramLatency")
	stride := w.Params[i].Stride()
	b[i] = a[i] - stride // one stride move
	if d := ManhattanDistance(w, a, b); d != 1 {
		t.Fatalf("one stride move should be distance 1, got %d", d)
	}
}
