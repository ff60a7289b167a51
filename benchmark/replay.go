package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/ssd"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// The replay files: write-heavy, read-only and mixed.
var replayCats = []workload.Category{workload.FIU, workload.WebSearch, workload.Database}

// The host-interface models every file is replayed under.
var replayIfcs = []ssd.HostIfc{ssd.IfcConventional, ssd.IfcZNS, ssd.IfcMultiStream}

func replayRecords(cfg runConfig) int {
	if cfg.smoke {
		return 20000
	}
	return 100000
}

// smallDevice is a device small enough that the replay reaches garbage
// collection and CMT misses: 256 MiB raw flash, a 64 KiB CMT, an 8 MiB
// data cache, 85% pre-filled, 8% over-provisioned.
func smallDevice(ifc ssd.HostIfc) ssd.DeviceParams {
	p := ssd.DefaultParams()
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 2, 2, 1, 1
	p.BlocksPerPlane, p.PagesPerBlock, p.PageSizeBytes = 256, 64, 4096
	p.CacheLineBytes = 4096
	p.CMTBytes = 64 << 10
	p.DataCacheBytes = 8 << 20
	p.InitialOccupancyFrac = 0.85
	p.OverprovisionRatio = 0.08
	p.HostIfcModel = ifc
	return p
}

type replayFile struct {
	name    string
	path    string
	records int
}

// writeTraces generates the replay files from the seed: each category
// with 5% TRIM and 4 stream tags, written in blktrace format.
func writeTraces(cfg runConfig, dir string) ([]replayFile, error) {
	var out []replayFile
	for _, cat := range replayCats {
		src, err := workload.NewSource(cat, workload.Options{
			Requests: replayRecords(cfg), Seed: cfg.seed, TrimRatio: 0.05, Streams: 4,
		})
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, string(cat)+".blktrace")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		werr := trace.WriteBlktraceSource(f, src)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("write %s: %w", path, werr)
		}
		out = append(out, replayFile{name: string(cat), path: path, records: replayRecords(cfg)})
	}
	return out, nil
}

// simulate runs one source on the small device under ifc.
func simulate(ctx context.Context, ifc ssd.HostIfc, src trace.Source) (*ssd.Result, error) {
	sim, err := ssd.NewSimulator(smallDevice(ifc))
	if err != nil {
		return nil, err
	}
	res, err := sim.RunSourceContext(ctx, src)
	if err != nil {
		return nil, err
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// replayStreamed is ssdsim's streamed replay: the simulator pulls
// records straight from the blktrace decoder, once per pass.
func replayStreamed(ctx context.Context, f replayFile, ifc ssd.HostIfc) (*ssd.Result, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return simulate(ctx, ifc, trace.NewBlktraceSource(fh, f.name))
}

// decodeFile drains the blktrace decoder alone into memory.
func decodeFile(f replayFile) (*trace.Trace, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return trace.Materialize(trace.NewBlktraceSource(fh, f.name))
}

// digest fingerprints every simulated field of a result.
func digest(res *ssd.Result) string {
	b, _ := json.Marshal(res) // a plain struct of numbers
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func flashOps(r *ssd.Result) int64 {
	return r.UserReads + r.UserPrograms + r.GCReads + r.GCPrograms + r.Erases + r.MappingReads + r.MappingWrites
}

// replayKey names one (file, interface) simulation.
func replayKey(f replayFile, ifc ssd.HostIfc) string { return f.name + "/" + ifc.String() }

// checkReplay checks one result's conservation laws and, for FIU on the
// conventional interface, that the workload still reaches garbage
// collection and CMT misses.
func checkReplay(rep *report, key string, f replayFile, ifc ssd.HostIfc, r *ssd.Result) {
	if r.Requests <= 0 || r.WriteAmplification < 1 || r.Erases < int64(r.GCRuns) {
		rep.fail("%s: conservation: requests %d, write amplification %g, erases %d < gc runs %d",
			key, r.Requests, r.WriteAmplification, r.Erases, r.GCRuns)
	}
	if f.name == string(workload.FIU) && ifc == ssd.IfcConventional {
		miss := float64(r.CMTMisses) / float64(max(r.CMTHits+r.CMTMisses, 1))
		if r.GCRuns == 0 || miss <= 0.5 {
			rep.fail("%s: no longer stresses GC and the CMT: %d gc runs, CMT miss ratio %.3f", key, r.GCRuns, miss)
		}
	}
}

// interfaceGrade is the Formula 1 grade of the best host interface over
// conventional on the small device, averaged over the replay files.
func interfaceGrade(results map[string]*ssd.Result, files []replayFile) (string, float64) {
	g := core.Grader{Alpha: core.DefaultAlpha}
	perf := func(r *ssd.Result) autodb.Perf {
		return autodb.Perf{LatencyNS: r.AvgLatency.Nanoseconds(), ThroughputBps: r.ThroughputBps}
	}
	bestName, best := ssd.IfcConventional.String(), 0.0
	for _, ifc := range replayIfcs[1:] {
		var sum float64
		for _, f := range files {
			sum += g.Performance(perf(results[replayKey(f, ifc)]), perf(results[replayKey(f, ssd.IfcConventional)]))
		}
		if m := sum / float64(len(files)); m > best {
			bestName, best = ifc.String(), m
		}
	}
	return bestName, best
}

// runReplay runs the replay-small-device workload.
func runReplay(ctx context.Context, cfg runConfig) (*report, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("replay-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cal := newCalibrator()
	cal.block()
	// Set-up is cheap next to a replay; repeat it for a steady median.
	var setups samples
	var files []replayFile
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fs, err := writeTraces(cfg, dir)
		if err != nil {
			return nil, err
		}
		setups.add(time.Since(t0).Seconds())
		files = fs
	}
	cal.block()
	setups.settle(cal.factor(0))
	records := 0
	for _, f := range files {
		records += f.records * len(replayIfcs)
	}

	rep := newReport()
	rec := newRecorder()
	digests := map[string]string{}
	var firstResults map[string]*ssd.Result
	var walls, twalls samples
	var allocs []float64
	layers := map[string][]float64{}
	// The first replay warms the process up (heap size, caches); its
	// outputs are checked but its timings are discarded.
	opErr := closedLoop(cfg.budget, 2, func(i int) error {
		before := cal.mark()
		defer func() {
			cal.block()
			f := cal.factor(before)
			walls.settle(f)
			twalls.settle(f)
		}()
		results := map[string]*ssd.Result{}
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var paused time.Duration
		t0 := time.Now()
		for _, f := range files {
			for _, ifc := range replayIfcs {
				r, err := replayStreamed(ctx, f, ifc)
				if err != nil {
					rep.attempted++
					rep.failed++
					return fmt.Errorf("%s: %w", replayKey(f, ifc), err)
				}
				results[replayKey(f, ifc)] = r
			}
			paused += cal.sample() // between files: outside the replay's time
		}
		wall := time.Since(t0) - paused
		alloc := allocSince(&m0)
		rep.attempted++
		failures := len(rep.failures)
		for _, f := range files {
			for _, ifc := range replayIfcs {
				k := replayKey(f, ifc)
				r := results[k]
				checkReplay(rep, k, f, ifc, r)
				if d, ok := digests[k]; !ok {
					digests[k] = digest(r)
				} else if d != digest(r) {
					rep.fail("%s: simulated result digest %s differs from first replay's %s", k, digest(r), d)
				}
			}
		}
		if len(rep.failures) > failures {
			rep.failed++
		}
		if firstResults == nil {
			firstResults = results
		}
		if i > 0 {
			walls.add(wall.Seconds())
			allocs = append(allocs, float64(alloc)/float64(records))
		}
		if !cfg.traced {
			return nil
		}
		return tracedReplay(ctx, rep, rec, i+1, files, digests, &twalls, layers)
	})
	if opErr != nil {
		rep.fail("operation error: %v", opErr)
	}
	if firstResults == nil {
		return rep, nil
	}

	ifcName, grade := interfaceGrade(firstResults, files)
	rep.printf("workload %s: %d records per file (FIU, WebSearch, Database; 5%% TRIM, 4 stream tags) x 3 host interfaces, closed loop with 1 caller",
		cfg.workload, files[0].records)
	var reqps, normReqps []float64
	for i, w := range walls.host {
		reqps = append(reqps, float64(records)/w)
		normReqps = append(normReqps, float64(records)/walls.ref[i])
	}
	rep.timing("replay_wall_s", "s", walls.host)
	rep.timing("setup_s (host s)", "s", setups.host)
	rep.timing("replay_req_per_s", "records/s", reqps)
	rep.reference(cal)
	rep.timing("op_norm_s", "s", walls.ref)
	rep.timing("setup_s", "s", setups.ref)
	rep.timing("req_per_norm_s", "records/s", normReqps)
	rep.timing("alloc_b_per_req", "B/record", allocs)
	rep.printf("%-28s %d count", "sims_per_replay", len(files)*len(replayIfcs))
	rep.printf("%-28s %.12g grade (%s over conventional)", "best_grade", grade, ifcName)
	for _, f := range files {
		for _, ifc := range replayIfcs {
			k := replayKey(f, ifc)
			r := firstResults[k]
			rep.printf("%-28s digest %s gc_runs %d erases %d write_amp %.4f cmt_hits %d cmt_misses %d", k, digests[k], r.GCRuns, r.Erases, r.WriteAmplification, r.CMTHits, r.CMTMisses)
		}
	}
	rep.e2e["op_norm_s"] = median(walls.ref)
	rep.e2e["setup_s"] = median(setups.ref)
	rep.e2e["req_per_norm_s"] = median(normReqps)
	rep.e2e["alloc_b_per_req"] = median(allocs)
	rep.e2e["sims_per_op"] = float64(len(files) * len(replayIfcs))
	rep.e2e["best_grade"] = grade

	if cfg.traced && len(twalls.host) > 0 {
		rep.finishTraced("replay_wall_s", layers, walls, twalls, rec, cal.scale())
	}
	return rep, nil
}

// tracedReplay is one traced operation: the streamed replay again with a
// span per (file, interface), then the layer probes — one decode span
// per file draining the blktrace decoder alone, and one simulation span
// per (file, interface) over the pre-decoded in-memory trace.
func tracedReplay(ctx context.Context, rep *report, rec *recorder, op int, files []replayFile, digests map[string]string, twalls *samples, layers map[string][]float64) error {
	rep.attempted++
	fail := func(err error) error {
		rep.failed++
		return err
	}
	root := rec.begin(op, 0, "op.replay")
	defer rec.end(root)
	streamID := rec.begin(op, root, "replay")
	for _, f := range files {
		for _, ifc := range replayIfcs {
			t0 := time.Now()
			if _, err := replayStreamed(ctx, f, ifc); err != nil {
				return fail(err)
			}
			rec.add(op, streamID, "replay."+replayKey(f, ifc), t0, time.Now())
		}
	}
	rec.end(streamID)
	twalls.add(rec.get(streamID).dur().Seconds())

	var decodeNS, decoded, flash int64
	var simNS = map[ssd.HostIfc]int64{}
	var alloc uint64
	var simRecords int
	var gcRuns, erases, userProg, gcProg, cmtHits, cmtMiss, cacheHits, cacheMiss int64
	before := len(rep.failures)
	for _, f := range files {
		id := rec.begin(op, root, "trace.decode."+f.name)
		tr, err := decodeFile(f)
		rec.end(id)
		if err != nil {
			return fail(err)
		}
		decodeNS += rec.get(id).dur().Nanoseconds()
		decoded += int64(len(tr.Requests))
		for _, ifc := range replayIfcs {
			k := replayKey(f, ifc)
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			r, err := simulate(ctx, ifc, tr.Source())
			t1 := time.Now()
			alloc += allocSince(&m0)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", k, err))
			}
			rec.add(op, id, "ssd.sim."+k, t0, t1)
			if d := digest(r); d != digests[k] {
				rep.fail("%s: pre-decoded replay digest %s differs from streamed %s", k, d, digests[k])
			}
			simNS[ifc] += t1.Sub(t0).Nanoseconds()
			simRecords += f.records
			flash += flashOps(r)
			gcRuns += int64(r.GCRuns)
			erases += r.Erases
			userProg += r.UserPrograms
			gcProg += r.GCPrograms
			cmtHits += r.CMTHits
			cmtMiss += r.CMTMisses
			cacheHits += r.CacheHits
			cacheMiss += r.CacheMisses
		}
	}
	if len(rep.failures) > before {
		rep.failed++
	}
	var totalSim int64
	perIfc := int64(0)
	for _, f := range files {
		perIfc += int64(f.records)
	}
	for _, ifc := range replayIfcs {
		layers["ssd.ns_per_req."+ifc.String()] = append(layers["ssd.ns_per_req."+ifc.String()], float64(simNS[ifc])/float64(2*perIfc))
		totalSim += simNS[ifc]
	}
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	add("trace.decode_ns_per_req", float64(decodeNS)/float64(decoded))
	add("ssd.ns_per_flash_op", float64(totalSim)/float64(max(flash, 1)))
	add("ssd.alloc_b_per_req", float64(alloc)/float64(simRecords))
	add("ssd.gc_runs", float64(gcRuns))
	add("ssd.erases", float64(erases))
	wa := 1.0
	if userProg > 0 {
		wa = float64(userProg+gcProg) / float64(userProg)
	}
	add("ssd.write_amp", wa)
	add("ssd.cmt_hit_ratio", float64(cmtHits)/math.Max(float64(cmtHits+cmtMiss), 1))
	add("ssd.cache_hit_ratio", float64(cacheHits)/math.Max(float64(cacheHits+cacheMiss), 1))
	return nil
}
