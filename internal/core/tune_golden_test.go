package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// tuneGolden is everything a tuning run decides, printed to 10
// significant digits so the pin survives last-bit float differences
// between platforms while any change to the search path shows.
type tuneGolden struct {
	trajectory string
	best       string
	simRuns    int
	pruned     int
	frontSize  int
	hv         string
}

func goldenOf(res *TuneResult) tuneGolden {
	traj := make([]string, len(res.Trajectory))
	for i, g := range res.Trajectory {
		traj[i] = fmt.Sprintf("%.10g", g)
	}
	return tuneGolden{
		trajectory: strings.Join(traj, " "),
		best:       res.Best.Key(),
		simRuns:    res.SimRuns,
		pruned:     res.PrunedValidations,
		frontSize:  len(res.Front),
		hv:         fmt.Sprintf("%.10g", res.Hypervolume),
	}
}

// TestTuneGolden pins the whole search trajectory of Tune on a small
// fixed environment, in scalar mode and in perf,power,lifetime Pareto
// mode: the best grade after every iteration, the winning
// configuration, the fresh simulation count, the validation-pruning
// count, and the front size and hypervolume. Any refactor of the
// search loop, the frontier set-up or the final report must leave all
// of them unchanged.
func TestTuneGolden(t *testing.T) {
	cases := []struct {
		objectives string
		want       tuneGolden
	}{
		{"", tuneGolden{
			trajectory: "0 0 0.1521974273 0.1529782858 0.1529782858 0.1529782858 0.1536965675 0.1536965675 0.1536965675 0.1536965675",
			best:       "ag.ae.ad.aa.ac.ae.ab.bd.ah.aa.ag.ae.ae.ac.ac.ac.af.ad.ac.ac.ac.ab.ac.ac.ac.ac.ab.ab.ac.ac.ab.aa.ad.ad.ad.ab.ac.ac.ab.ab.aa.ab.ab.ab.ab.aa.aa.ad.aa.aa.aa.ab.",
			simRuns:    24,
			pruned:     6,
			hv:         "0",
		}},
		{"perf,power,lifetime", tuneGolden{
			trajectory: "0.1520829075 0.1520829075 0.1682155215 0.1682155215 0.1682155215 0.1682155215 0.1682155215 0.1682155215 0.1682155215 0.1682155215",
			best:       "ag.ae.ad.aa.ac.ae.ab.bb.ah.aa.ag.ae.ae.ac.ac.ac.af.ad.ac.ac.ac.ab.ac.ac.ac.ac.ab.ab.ac.ac.ab.aa.ad.ad.ad.ab.ac.ac.ab.ab.aa.aa.ab.aa.ab.aa.ah.ad.aa.aa.aa.ab.",
			simRuns:    87,
			frontSize:  6,
			hv:         "0.4916598538",
		}},
	}
	for _, tc := range cases {
		name := tc.objectives
		if name == "" {
			name = "scalar"
		}
		t.Run(name, func(t *testing.T) {
			space, v, g, ref := smallTunerEnv(t)
			space.Objectives = mustSpec(t, tc.objectives)
			initial := []ssdconf.Config{ref}
			for _, mutate := range []map[string]float64{
				{"FlashChannelCount": 32, "ChipNoPerChannel": 2},
				{"DataCacheSize": 416, "CMTCapacity": 384},
			} {
				cfg := ref.Clone()
				for name, val := range mutate {
					if err := space.SetByName(cfg, name, val); err != nil {
						t.Fatal(err)
					}
				}
				if !space.RepairCapacity(cfg) || space.CheckConstraints(cfg) != nil {
					t.Fatalf("initial variant %v is not valid", mutate)
				}
				initial = append(initial, cfg)
			}
			tuner, err := NewTuner(space, v, g, TunerOptions{Seed: 1, MaxIterations: 10, SGDSteps: 3})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tuner.Tune(context.Background(), string(workload.Database), initial)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenOf(res); got != tc.want {
				t.Fatalf("tune drifted from the golden run:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
