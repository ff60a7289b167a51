package main

import (
	"strings"
	"testing"

	"autoblox/internal/ssd"
)

// TestConstraintsResolveDeviceFlags: -iface and -flash accept the
// registry names in any case and reject anything else with an error
// that names the valid values, instead of silently tuning NVMe/MLC.
func TestConstraintsResolveDeviceFlags(t *testing.T) {
	for _, c := range []struct {
		iface, flash string
		wantIfc      ssd.Interface
		wantFlash    ssd.FlashType
	}{
		{"nvme", "mlc", ssd.NVMe, ssd.MLC},
		{"SATA", "tlc", ssd.SATA, ssd.TLC},
		{"NVMe", "Slc", ssd.NVMe, ssd.SLC},
	} {
		cons, err := (&commonFlags{iface: c.iface, flash: c.flash}).constraints()
		if err != nil || cons.Interface != c.wantIfc || cons.Flash != c.wantFlash {
			t.Fatalf("-iface %s -flash %s = %v/%v, %v; want %v/%v", c.iface, c.flash, cons.Interface, cons.Flash, err, c.wantIfc, c.wantFlash)
		}
	}
	for _, c := range []struct{ iface, flash, want string }{
		{"sas", "mlc", "-iface: ssd: unknown interface \"sas\" (valid: NVMe, SATA)"},
		{"nvme", "qlc", "-flash: ssd: unknown flash type \"qlc\" (valid: SLC, MLC, TLC)"},
	} {
		_, err := (&commonFlags{iface: c.iface, flash: c.flash}).constraints()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("-iface %s -flash %s: error %v, want %q", c.iface, c.flash, err, c.want)
		}
	}
}
