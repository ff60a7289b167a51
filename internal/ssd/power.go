package ssd

// Energy model.
//
// The paper extends MQSim with power modeling for the three major
// consumers: flash chips (per-op energy following the characterization of
// Grupp et al., MICRO'09), SSD DRAM (DRAMPower-style: per-access energy
// plus background power) and the storage processor (gem5-style ARM
// active/idle power). We reproduce the same structure analytically from
// the op counters the simulator already maintains; the relationships that
// matter for the power-budget constraint and Fig. 7 — more chips → more
// idle power, fewer controller-busy cycles with better layouts, MLC/TLC
// programs costing multiples of SLC — are preserved.

// Per-operation flash energy in microjoules, scaled to the page size.
// Values per 16KB page; derived from published NAND characterizations.
func flashOpEnergyUJ(t FlashType, pageBytes int) (read, program, erase float64) {
	scale := float64(pageBytes) / 16384.0
	switch t {
	case SLC:
		read, program, erase = 12, 28, 110
	case MLC:
		read, program, erase = 18, 60, 160
	default: // TLC
		read, program, erase = 25, 110, 210
	}
	return read * scale, program * scale, erase * scale
}

// Standby power per flash die in milliwatts.
const flashDieStandbyMW = 0.8

// Controller power in milliwatts per 100 MHz (active adds on top of idle).
const (
	controllerIdleMWPer100MHz   = 18
	controllerActiveMWPer100MHz = 65
)

// DRAM energy coefficients.
const (
	dramEnergyPerByteNJ   = 0.12 // activate+IO energy per byte moved
	dramBackgroundMWPerGB = 180  // background/refresh power per GB
)

// energy computes total energy in joules for the run.
func (e *engine) energy(r *Result, makespanNS int64) float64 {
	p := e.p
	seconds := float64(makespanNS) / 1e9

	// Flash op energy.
	readUJ, progUJ, eraseUJ := flashOpEnergyUJ(p.FlashType, p.PageSizeBytes)
	flashReads := float64(r.UserReads + r.GCReads + r.MappingReads)
	flashProgs := float64(r.UserPrograms + r.GCPrograms + r.MappingWrites)
	flashJ := (flashReads*readUJ + flashProgs*progUJ + float64(r.Erases)*eraseUJ) / 1e6

	// Flash standby: all dies idle-burn for the whole run.
	dies := float64(p.Channels * p.ChipsPerChannel * p.DiesPerChip)
	flashJ += dies * flashDieStandbyMW / 1e3 * seconds

	// DRAM: background power scales with capacity; access energy with
	// bytes moved through the data cache and the CMT.
	dramGB := float64(p.DataCacheBytes+p.CMTBytes) / (1 << 30)
	dramJ := dramGB * dramBackgroundMWPerGB / 1e3 * seconds
	bytesMoved := float64(r.dramAccesses) * float64(p.PageSizeBytes)
	dramJ += bytesMoved * dramEnergyPerByteNJ / 1e9

	// Controller: idle power for the makespan plus active power for the
	// time the controller is actually processing commands, approximated
	// by firmware overhead per op plus channel-busy time.
	mhz := float64(p.ControllerMHz)
	idleJ := mhz / 100 * controllerIdleMWPer100MHz / 1e3 * seconds
	ops := flashReads + flashProgs + float64(r.Erases) + float64(r.CacheHits)
	activeSec := ops*float64(e.fwNS)/1e9 + float64(r.channelBusyNS)/1e9
	if activeSec > seconds {
		activeSec = seconds
	}
	activeJ := mhz / 100 * controllerActiveMWPer100MHz / 1e3 * activeSec

	return flashJ + dramJ + idleJ + activeJ
}
