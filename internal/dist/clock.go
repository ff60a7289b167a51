package dist

import "time"

// Clock abstracts wall time for the coordinator's lease machinery —
// TTL expiry and hedging thresholds. Production uses the real clock;
// tests inject a fake to make every expiry edge case deterministic
// instead of sleep-calibrated.
//
// Expiry is evaluated lazily (on lease pulls and result application),
// so a fake clock needs no tick delivery: advance it, then drive the
// coordinator, and the overdue leases are reclaimed on the next pull.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
