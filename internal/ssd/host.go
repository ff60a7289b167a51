package ssd

import (
	"autoblox/internal/trace"
)

// Host-side request admission: NVMe multi-queue submission and optional
// adjacent-request merging.
//
// NVMe exposes QueueCount independent submission queues, each QueueDepth
// deep; the device services them in round-robin. SATA has a single
// 32-deep NCQ queue. The engine models admission as one completion
// window per queue: request j of queue q dispatches when slot
// (j mod QueueDepth) of queue q frees. Total outstanding commands are
// therefore QueueDepth × QueueCount for NVMe, matching real devices.

// hostQueues tracks per-queue completion windows in one flat array:
// queue q's window is windows[q*depth : (q+1)*depth], and next[q] is the
// index in windows of the slot its next request takes. Advancing next[q]
// by one and wrapping it at the window's end is the "j mod QueueDepth"
// above without a division per queue per request.
type hostQueues struct {
	windows []int64 // completion times, depth slots per queue
	next    []int   // per queue: index in windows of its next slot
	depth   int
}

func newHostQueues(p *DeviceParams) *hostQueues {
	qc := p.QueueCount
	qd := p.QueueDepth
	if p.HostInterface == SATA {
		qc = 1
		if qd > 32 {
			qd = 32 // NCQ ceiling
		}
	}
	if qc < 1 {
		qc = 1
	}
	if qd < 1 {
		qd = 1
	}
	h := &hostQueues{windows: make([]int64, qc*qd), next: make([]int, qc), depth: qd}
	for q := range h.next {
		h.next[q] = q * qd
	}
	return h
}

// hostSlot is the index in hostQueues.windows of the slot an admitted
// request occupies; pass it to complete. A plain value token (rather
// than a commit closure) keeps admission allocation-free on the
// per-request hot path.
type hostSlot int

// admit returns the dispatch time for a request arriving at `arrival` on
// the least-loaded queue, and the slot to release via complete.
func (h *hostQueues) admit(arrival int64) (dispatch int64, s hostSlot) {
	// Host drivers steer submissions to the queue with the earliest free
	// slot (per-CPU queues drained independently).
	bestQ, bestGate := 0, int64(1<<62)
	for q, i := range h.next {
		if gate := h.windows[i]; gate < bestGate {
			bestQ, bestGate = q, gate
		}
	}
	slot := h.next[bestQ]
	next := slot + 1
	if next == (bestQ+1)*h.depth {
		next -= h.depth
	}
	h.next[bestQ] = next
	return max(arrival, bestGate), hostSlot(slot)
}

// complete records the completion time of the request occupying s,
// freeing the slot for the next admission.
func (h *hostQueues) complete(s hostSlot, done int64) {
	h.windows[s] = done
}

const (
	mergeWindowNS  = 200_000 // 200µs plug window
	maxMergedBytes = 1 << 20 // cap merged requests at 1MB
)

// canMerge reports whether the block layer would coalesce r into the
// accumulating request cur: contiguous, same direction (and same
// multi-stream tag — merging across streams would destroy the placement
// hint), within the plug window of the accumulator's arrival, and under
// the merged-size cap.
func canMerge(cur, r trace.Request) bool {
	contiguous := cur.LBA+uint64(cur.Sectors) == r.LBA
	sameOp := cur.Op == r.Op && cur.Stream == r.Stream
	inWindow := r.Arrival.Nanoseconds()-cur.Arrival.Nanoseconds() <= mergeWindowNS
	smallEnough := (uint64(cur.Sectors)+uint64(r.Sectors))*512 <= maxMergedBytes
	return contiguous && sameOp && inWindow && smallEnough
}

// mergeStream coalesces contiguous same-direction requests on the fly
// (the block layer's request merging, which the IOMergingEnabled
// parameter controls) with a single request of lookahead, so merging
// adds O(1) memory to the streaming pipeline.
type mergeStream struct {
	src     requestStream
	pending trace.Request
	have    bool
	done    bool
	merged  int64
}

func newMergeStream(src requestStream) *mergeStream {
	return &mergeStream{src: src}
}

func (m *mergeStream) Next() (trace.Request, bool) {
	if m.done {
		return trace.Request{}, false
	}
	if !m.have {
		r, ok := m.src.Next()
		if !ok {
			m.done = true
			return trace.Request{}, false
		}
		m.pending = r
	}
	cur := m.pending
	m.have = false
	for {
		r, ok := m.src.Next()
		if !ok {
			m.done = true
			return cur, true
		}
		if canMerge(cur, r) {
			cur.Sectors += r.Sectors
			m.merged++
			continue
		}
		m.pending, m.have = r, true
		return cur, true
	}
}
