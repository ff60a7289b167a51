package cliobs

import (
	"strings"
	"testing"

	"autoblox/internal/core"
	"autoblox/internal/dist"
	"autoblox/internal/obs"
)

// TestRegisterHelpCoversEmittedFamilies records one sample in families
// the validator and coordinator emit and checks that the Prometheus
// export carries their registered HELP text, not the generic fallback.
func TestRegisterHelpCoversEmittedFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	registerHelp(reg)
	reg.Counter(core.MetricCoalesced).Inc()
	reg.Histogram(core.MetricSimTime).Record(1000)
	reg.Counter(dist.MetricResultsDup).Inc()
	reg.Counter(dist.MetricHandshakeRejects).Inc()
	reg.Histogram(dist.MetricWorkerBusy("w1")).Record(1000)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		core.MetricCoalesced, core.MetricSimTime,
		dist.MetricResultsDup, dist.MetricHandshakeRejects,
		family(dist.MetricWorkerBusy("w1")),
	} {
		if !strings.Contains(out, "# HELP "+fam+" ") {
			t.Errorf("no HELP line for %s", fam)
		}
		if strings.Contains(out, "# HELP "+fam+" autoblox metric "+fam) {
			t.Errorf("%s exports the generic HELP text", fam)
		}
	}
}
