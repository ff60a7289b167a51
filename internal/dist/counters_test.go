package dist

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/workload"
)

// TestFleetCountsAreRegistrySeries drives one lease expiry (and so one
// reassignment), one duplicate result, one handshake reject and one
// stats push through an instrumented coordinator, then checks that
// Counters, StatusSnapshot and Stats all read the registry's series:
// each event is counted at one site.
func TestFleetCountsAreRegistrySeries(t *testing.T) {
	const ttl = 30 * time.Second
	clk := newFakeClock()
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	reg := obs.NewRegistry()
	coord := NewCoordinator(env, CoordinatorOptions{
		LeaseTTL: ttl, PollInterval: time.Millisecond, Clock: clk, Obs: reg,
	})
	t.Cleanup(coord.Close)

	done := measureOne(coord, distinctConfigs(t, env.Space(), 1)[0])
	holder := dialFake(t, coord)
	holder.mustAccept("holder", env.SpaceSig)
	leases := holder.leaseAtLeast(1)
	clk.Advance(ttl)
	probe := dialFake(t, coord)
	probe.mustAccept("probe", env.SpaceSig)
	regrants := probe.leaseAtLeast(1)

	result := func(l Lease) *Message {
		return &Message{Type: MsgResult, Result: &ResultMsg{Results: []JobResult{
			{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name, Perf: autodb.Perf{LatencyNS: 1, ThroughputBps: 1}, SimNS: 1},
		}}}
	}
	holder.send(result(leases[0]))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	probe.send(result(regrants[0]))
	waitFor(t, func() bool { return coord.Counters().Duplicates == 1 }, "duplicate result counted")
	probe.send(&Message{Type: MsgStatsPush, StatsPush: &StatsPush{}})
	waitFor(t, func() bool { return coord.Counters().StatsPushes == 1 }, "stats push counted")

	old := dialFake(t, coord)
	old.send(&Message{Type: MsgHello, Hello: &Hello{Worker: "old", Version: ProtocolVersion + 1}})
	if m := old.recv(); m.Type != MsgReject {
		t.Fatalf("want reject, got %s", m.Type)
	}

	fc := coord.Counters()
	want := FleetCounters{Granted: 2, Expired: 1, Reassigned: 1, Duplicates: 1, HandshakeRejects: 1, StatsPushes: 1}
	if fc != want {
		t.Fatalf("Counters() = %+v, want %+v", fc, want)
	}
	for name, v := range map[string]int64{
		MetricLeasesGranted:    fc.Granted,
		MetricLeasesExpired:    fc.Expired,
		MetricLeasesReassigned: fc.Reassigned,
		MetricResultsDup:       fc.Duplicates,
		MetricHandshakeRejects: fc.HandshakeRejects,
		MetricStatsPushes:      fc.StatsPushes,
		MetricHedgedLeases:     fc.Hedged,
	} {
		if got := reg.Snapshot().Counters[name]; got != v {
			t.Errorf("registry %s = %d, Counters() says %d", name, got, v)
		}
	}
	if st := coord.StatusSnapshot(); st.FleetCounters != fc {
		t.Errorf("StatusSnapshot counters %+v, Counters() %+v", st.FleetCounters, fc)
	}
	if st := coord.Stats(); st.LeasesExpired != reg.Counter(MetricLeasesExpired).Value() ||
		st.LeasesReassigned != reg.Counter(MetricLeasesReassigned).Value() {
		t.Errorf("Stats() expired/reassigned %d/%d disagree with the registry", st.LeasesExpired, st.LeasesReassigned)
	}
}

// TestStatusJSONKeys pins the /statusz fleet document: its keys, their
// order, and which ones a zero value omits.
func TestStatusJSONKeys(t *testing.T) {
	const full = `{"closed":true,"pending":1,"leased":2,"leases_granted":3,"leases_expired":4,` +
		`"leases_reassigned":5,"duplicate_results":6,"handshake_rejects":7,"stats_pushes":8,"hedged_leases":9,` +
		`"workers":[{"name":"w","connected":true,"jobs":1,"busy_ns":2,"leases_held":3,"leases_expired":4,` +
		`"leases_reassigned":5,"clock_offset_ns":6,"rtt_ns":7,"last_seen":"t"}]}`
	var st FleetStatus
	if err := json.Unmarshal([]byte(full), &st); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(st); string(got) != full {
		t.Fatalf("round trip\n got %s\nwant %s", got, full)
	}
	const zero = `{"closed":false,"pending":0,"leased":0,"leases_granted":0,"leases_expired":0,` +
		`"leases_reassigned":0,"duplicate_results":0,"handshake_rejects":0,"stats_pushes":0}`
	if got, _ := json.Marshal(FleetStatus{}); string(got) != zero {
		t.Fatalf("zero value\n got %s\nwant %s", got, zero)
	}
}

// TestIdleTalliesBounded: workers that handshake and leave one after
// another, each under a new name, leave at most maxIdleTallies rows
// behind — the most recently seen ones — while a connected worker's row
// stays however long ago it was last seen.
func TestIdleTalliesBounded(t *testing.T) {
	clk := newFakeClock()
	coord, env := clockCoord(t, clk, time.Minute)
	anchor := dialFake(t, coord)
	anchor.mustAccept("anchor", env.SpaceSig)

	const cycles = maxIdleTallies + 10
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("w%03d", i)
		clk.Advance(time.Second)
		f := dialFake(t, coord)
		f.mustAccept(name, env.SpaceSig)
		f.conn.Close()
		waitFor(t, func() bool {
			for _, w := range coord.StatusSnapshot().Workers {
				if w.Name == name {
					return !w.Connected
				}
			}
			return false
		}, name+" disconnected")
		if n := len(coord.StatusSnapshot().Workers); n > maxIdleTallies+1 {
			t.Fatalf("cycle %d: %d worker rows, bound %d idle + 1 connected", i, n, maxIdleTallies)
		}
	}

	rows := coord.StatusSnapshot().Workers
	if len(rows) != maxIdleTallies+1 {
		t.Fatalf("%d worker rows, want %d idle + the anchor", len(rows), maxIdleTallies)
	}
	if rows[0].Name != "anchor" || !rows[0].Connected {
		t.Fatalf("connected anchor row evicted or disconnected: %+v", rows[0])
	}
	for i, w := range rows[1:] {
		if want := fmt.Sprintf("w%03d", cycles-maxIdleTallies+i); w.Name != want {
			t.Fatalf("row %d = %s, want %s (the most recent names)", i+1, w.Name, want)
		}
	}
}
