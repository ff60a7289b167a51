package ssd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
	"time"

	"autoblox/internal/obs"
	"autoblox/internal/trace"
)

// The tests below run one or two requests on an idle, unfolded device
// and check their latencies against sums of per-operation costs derived
// from DeviceParams alone, never from engine fields. Between them they
// pin every resource timeline a request waits on: the plane, the
// channel bus, the host link and the ZNS zone append point.

// timingDevice is smallDevice (capScale 1) with nothing that would add
// work to a lone request: no merging, no suspension and no faults. A
// 16-lane link makes a page's host transfer shorter than a DRAM pass, so
// back-to-back completions do not queue on the host link.
func timingDevice() DeviceParams {
	p := smallDevice()
	p.IOMergingEnabled = false
	p.SuspendEnabled = false
	p.Faults = FaultProfile{}
	p.PCIeLanes = 16
	return p
}

// opCosts are one page's per-operation times (ns).
type opCosts struct {
	cmd, fw, tR, tProg, xfer, ecc, dram, host int64
}

func costsOf(p DeviceParams) opCosts {
	page := float64(p.PageSizeBytes)
	dramBps := float64(p.DRAMMHz) * 1e6 * float64(p.DRAMBusBits) / 8 * 2 // DDR
	return opCosts{
		// NVMe: 8 µs of command overhead split over the queues, at least 1 µs.
		cmd:   max(8_000/int64(p.QueueCount), 1_000),
		fw:    p.FirmwareOverhead.Nanoseconds(),
		tR:    p.ReadLatency.Nanoseconds(),
		tProg: p.ProgramLatency.Nanoseconds(),
		xfer:  int64(page / p.ChannelBandwidthBps() * 1e9),
		ecc:   p.ECCLatency.Nanoseconds(),
		dram:  int64(page/dramBps*1e9) + 300, // + access latency
		host:  int64(page / p.HostBandwidthBps() * 1e9),
	}
}

func (c opCosts) read() int64  { return c.cmd + c.fw + c.tR + c.xfer + c.ecc + c.host }
func (c opCosts) write() int64 { return c.cmd + c.fw + c.dram + c.host }

// timingRun simulates one request per logical page in lps, all arriving
// together, and returns the Result.
func timingRun(t *testing.T, p DeviceParams, op trace.Op, lps ...int64) *Result {
	t.Helper()
	spp := uint64(p.PageSizeBytes / 512)
	var reqs []trace.Request
	for _, lp := range lps {
		reqs = append(reqs, trace.Request{
			Arrival: time.Millisecond, LBA: uint64(lp) * spp, Sectors: uint32(spp), Op: op,
		})
	}
	res := runTrace(t, p, &trace.Trace{Name: "timing", Requests: reqs})
	if res.Requests != len(lps) {
		t.Fatalf("Requests = %d, want %d", res.Requests, len(lps))
	}
	return res
}

// pagePair returns logical page 0 and the first other page whose read
// goes to a plane for which pick(plane of page 0, its plane) holds.
func pagePair(t *testing.T, p DeviceParams, pick func(f *ftl, a, b planeID) bool) (int64, int64) {
	t.Helper()
	probe, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	f := probe.ftl
	if f.capScale != 1 {
		t.Fatalf("capScale = %d, want an unfolded device", f.capScale)
	}
	for lp := int64(1); lp < f.logicalPages; lp++ {
		if pick(f, f.lookup(0), f.lookup(lp)) {
			return 0, lp
		}
	}
	t.Fatal("no page pair with the wanted placement")
	return 0, 0
}

// assertPair checks two requests that arrived together: the first
// finishes after lat, the second gap later.
func assertPair(t *testing.T, res *Result, lat, gap int64) {
	t.Helper()
	if got, want := res.Makespan, time.Duration(lat+gap); got != want {
		t.Errorf("second completion %d ns after arrival, want %d", got, want)
	}
	if got, want := res.AvgLatency, time.Duration((2*lat+gap)/2); got != want {
		t.Errorf("AvgLatency = %d ns, want %d", got, want)
	}
}

func TestLoneReadClosedForm(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	res := timingRun(t, p, trace.Read, 0)
	if want := time.Duration(c.read()); res.AvgLatency != want || res.Makespan != want {
		t.Fatalf("lone read: latency %d, makespan %d ns; want cmd %d + fw %d + tR %d + xfer %d + ECC %d + host %d = %d",
			res.AvgLatency, res.Makespan, c.cmd, c.fw, c.tR, c.xfer, c.ecc, c.host, want)
	}
	if res.UserReads != 1 || res.CMTMisses != 0 || res.CacheHits != 0 {
		t.Fatalf("lone read took another path: %+v", res.Counters)
	}
}

func TestLoneWriteClosedForm(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	res := timingRun(t, p, trace.Write, 0)
	if want := time.Duration(c.write()); res.AvgLatency != want || res.Makespan != want {
		t.Fatalf("lone write: latency %d, makespan %d ns; want cmd %d + fw %d + DRAM %d + host %d = %d",
			res.AvgLatency, res.Makespan, c.cmd, c.fw, c.dram, c.host, want)
	}
}

// TestReadsOnOnePlaneFinishTRApart: the second read's cell work waits
// for the first's, and nothing after it waits again.
func TestReadsOnOnePlaneFinishTRApart(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	if c.xfer > c.tR || c.host > c.tR || c.tR > c.tProg {
		t.Fatalf("device must have xfer, host ≤ tR ≤ tProg: %+v", c)
	}
	a, b := pagePair(t, p, func(_ *ftl, x, y planeID) bool { return x == y })
	assertPair(t, timingRun(t, p, trace.Read, a, b), c.read(), c.tR)
}

// TestReadsOnOneChannelFinishOneTransferApart: two planes sense in
// parallel, then the second transfer waits for the first on the bus.
func TestReadsOnOneChannelFinishOneTransferApart(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	if c.host > c.xfer {
		t.Fatalf("device must have host ≤ xfer: %+v", c)
	}
	a, b := pagePair(t, p, func(f *ftl, x, y planeID) bool {
		return x != y && f.alloc.channelOf(x) == f.alloc.channelOf(y)
	})
	assertPair(t, timingRun(t, p, trace.Read, a, b), c.read(), c.xfer)
}

// TestWritesOverOneHostLinkFinishOneHostTransferApart: two writes end
// their DRAM passes together, then their payloads cross the host link
// one after the other.
func TestWritesOverOneHostLinkFinishOneHostTransferApart(t *testing.T) {
	p := timingDevice()
	p.PCIeLanes = 1
	c := costsOf(p)
	res := timingRun(t, p, trace.Write, 0, 1)
	assertPair(t, res, c.write(), c.host)
}

// TestZNSWritesInOneZoneFinishOneDRAMPassApart: appends to one zone go
// through its append point one DRAM pass at a time.
func TestZNSWritesInOneZoneFinishOneDRAMPassApart(t *testing.T) {
	p := timingDevice()
	p.HostIfcModel = IfcZNS
	p.ZoneSizeMB = 1
	c := costsOf(p)
	if c.host > c.dram {
		t.Fatalf("device must have host ≤ DRAM pass: %+v", c)
	}
	res := timingRun(t, p, trace.Write, 0, 1)
	assertPair(t, res, c.write(), c.dram)
	if res.WPViolations != 0 {
		t.Fatalf("sequential appends violated the write pointer %d times", res.WPViolations)
	}
}

// idleEngine returns a fresh engine on p: every timeline is zero. The
// tests below drive its steps directly, because no trace queues a given
// number of programs on one plane.
func idleEngine(t *testing.T, p DeviceParams) *engine {
	t.Helper()
	e, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.release)
	return e
}

// TestBypassReadClosedForm: a read that finds k programs queued on its
// plane waits for the backlog, or for at most one program under
// out-of-order scheduling, or for at most the suspend window under
// program suspension. The plane is then free when the read's cell work
// ends: the backlog it bypassed is gone.
func TestBypassReadClosedForm(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	suspend := p.SuspendProgram.Nanoseconds()
	if c.xfer > c.tR || c.tR > c.tProg || suspend >= c.tProg {
		t.Fatalf("device must have xfer ≤ tR ≤ tProg and suspend %d < tProg: %+v", suspend, c)
	}
	const pl = planeID(0)
	for _, mode := range []struct {
		name          string
		ooo, suspends bool
		wait          func(backlog int64) int64
	}{
		{"both off", false, false, func(b int64) int64 { return b }},
		{"out of order", true, false, func(b int64) int64 { return min(b, c.tProg) }},
		{"suspension", false, true, func(b int64) int64 { return min(b, suspend) }},
		{"both on", true, true, func(b int64) int64 { return min(b, c.tProg, suspend) }},
	} {
		p.TransactionSchedOOO, p.SuspendEnabled = mode.ooo, mode.suspends
		for k := int64(0); k <= 3; k++ {
			// k programs issued at 0 cross the bus one after the other
			// and queue on the plane: it is busy until xfer + k·tProg.
			planeBusy := int64(0)
			if k > 0 {
				planeBusy = c.xfer + k*c.tProg
			}
			// Arrive once the bus is free again, and half a program
			// before the backlog drains.
			for _, at := range []int64{k * c.xfer, max(k*c.xfer, planeBusy-c.tProg/2)} {
				e := idleEngine(t, p)
				for range k {
					e.flashProgram(pl, 0)
				}
				cellDone := at + mode.wait(max(planeBusy-at, 0)) + c.tR
				if got, want := e.flashRead(pl, at), cellDone+c.xfer+c.ecc; got != want {
					t.Errorf("%s, k=%d, read at %d: done at %d, want %d", mode.name, k, at, got, want)
				}
				if got := e.planeFree[pl]; got != cellDone {
					t.Errorf("%s, k=%d, read at %d: plane free at %d, want the read's cell completion %d",
						mode.name, k, at, got, cellDone)
				}
			}
		}
	}
}

// TestGCChargeClosedForm: m moves and e erases charged after their
// triggering program extend the plane by m(tR+tPROG+2·xfer)+e·tBERS and
// the channel by 2m·xfer; with copyback the moves stay on-chip, so the
// plane grows by m(tR+tPROG)+e·tBERS and the channel not at all.
func TestGCChargeClosedForm(t *testing.T) {
	for _, copyback := range []bool{false, true} {
		p := timingDevice()
		p.CopybackEnabled = copyback
		c := costsOf(p)
		tBERS := p.EraseLatency.Nanoseconds()
		for _, gc := range []struct{ moves, erases int32 }{{0, 1}, {3, 0}, {5, 2}} {
			m, n := int64(gc.moves), int64(gc.erases)
			wantPlane, wantChannel := m*(c.tR+c.tProg)+n*tBERS, int64(0)
			if !copyback {
				wantPlane += m * 2 * c.xfer
				wantChannel = 2 * m * c.xfer
			}
			e := idleEngine(t, p)
			const pl = planeID(0)
			ch := e.ftl.alloc.channelOf(pl)
			e.flashProgram(pl, 0)
			plane, channel, busy := e.planeFree[pl], e.channelFree[ch], e.channelBusyNS
			e.chargeGC(pl, gc.moves, gc.erases, 0)
			if got := e.planeFree[pl] - plane; got != wantPlane {
				t.Errorf("copyback %v, %d moves, %d erases: plane grew %d ns, want %d", copyback, m, n, got, wantPlane)
			}
			if got := e.channelFree[ch] - channel; got != wantChannel {
				t.Errorf("copyback %v, %d moves, %d erases: channel grew %d ns, want %d", copyback, m, n, got, wantChannel)
			}
			if got := e.channelBusyNS - busy; got != wantChannel {
				t.Errorf("copyback %v, %d moves, %d erases: channel busy time grew %d ns, want %d", copyback, m, n, got, wantChannel)
			}
		}
	}
}

// TestGCChannelWaitRecorded: GC moves without copyback cross the bus
// through the step reads and programs take, so their wait behind the
// triggering program's transfer reaches ssd_channel_stall_ns, and the
// pause reaches ssd_gc_pause_ns.
func TestGCChannelWaitRecorded(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	e := idleEngine(t, p)
	e.gcHist, e.stallHist = pooledHist(), pooledHist()
	const pl = planeID(0)
	e.flashProgram(pl, 0) // its transfer holds the idle bus for [0, xfer)
	e.chargeGC(pl, 2, 1, 0)
	reg := obs.NewRegistry()
	e.publish(reg)
	if s := reg.Histogram(MetricChannelStall).Snapshot(); s.Count != 1 || s.Sum != c.xfer {
		t.Errorf("%s holds %d samples summing to %d ns, want the GC moves' one wait of xfer %d",
			MetricChannelStall, s.Count, s.Sum, c.xfer)
	}
	pause := 2*(c.tR+c.tProg+2*c.xfer) + p.EraseLatency.Nanoseconds()
	if s := reg.Histogram(MetricGCPause).Snapshot(); s.Count != 1 || s.Sum != pause {
		t.Errorf("%s holds %d samples summing to %d ns, want one pause of %d", MetricGCPause, s.Count, s.Sum, pause)
	}
}

// TestTimelineStoresOnlyInPrimitives parses the package's non-test
// files and fails on a store to a resource timeline outside the two
// primitives, acquire and bypass: an assignment or increment of a
// timeline or one of its elements, a copy or clear into one, or its
// address taken for anything but a primitive's first argument. Set-up
// in newEngine and the warm-up reset (pass.reset) are exempt.
func TestTimelineStoresOnlyInPrimitives(t *testing.T) {
	timelines := map[string]bool{"planeFree": true, "channelFree": true, "hostFree": true, "zoneFree": true, "timelines": true}
	primitives := map[string]bool{"acquire": true, "bypass": true}
	exempt := map[string]bool{"newEngine": true, "pass.reset": true}
	// timeline returns the timeline x names, itself or an element, or "".
	var timeline func(x ast.Expr) string
	timeline = func(x ast.Expr) string {
		switch x := x.(type) {
		case *ast.ParenExpr:
			return timeline(x.X)
		case *ast.IndexExpr:
			return timeline(x.X)
		case *ast.SliceExpr:
			return timeline(x.X)
		case *ast.SelectorExpr:
			if timelines[x.Sel.Name] {
				return x.Sel.Name
			}
		case *ast.Ident:
			if timelines[x.Name] {
				return x.Name
			}
		}
		return ""
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	stores := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				name := ""
				if fn, ok := decl.(*ast.FuncDecl); ok {
					name = fn.Name.Name
					if fn.Recv != nil {
						recv := fn.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							name = id.Name + "." + name
						}
					}
				}
				if exempt[name] || primitives[name] {
					continue
				}
				report := func(n ast.Node, what string) {
					t.Errorf("%s: %s in %s writes a timeline outside acquire and bypass",
						fset.Position(n.Pos()), what, name)
				}
				passed := map[ast.Expr]bool{} // a primitive's timeline operand
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if tl := timeline(lhs); tl != "" {
								report(n, "assignment to "+tl)
							}
						}
					case *ast.IncDecStmt:
						if tl := timeline(n.X); tl != "" {
							report(n, n.Tok.String()+" of "+tl)
						}
					case *ast.CallExpr:
						fun, ok := n.Fun.(*ast.Ident)
						if !ok || len(n.Args) == 0 {
							break
						}
						switch {
						case primitives[fun.Name]:
							passed[n.Args[0]] = true
							stores++
						case fun.Name == "copy" || fun.Name == "clear":
							if tl := timeline(n.Args[0]); tl != "" {
								report(n, fun.Name+" into "+tl)
							}
						}
					case *ast.UnaryExpr:
						if tl := timeline(n.X); n.Op == token.AND && tl != "" && !passed[n] {
							report(n, "address of "+tl)
						}
					}
					return true
				})
			}
		}
	}
	if stores == 0 {
		t.Fatal("found no call to a timeline primitive: the parse missed the simulator")
	}
}
