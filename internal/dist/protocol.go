// Package dist shards Validator measurements across processes: a
// coordinator owns the queue of measurement keys and workers lease
// them, one per free simulation slot, over a length-prefixed TCP/JSON
// protocol, run the simulations locally through the ordinary validator
// path, and stream each result back as it finishes.
//
// Distribution is provably invisible: simulations are deterministic and
// keyed, so any worker's result for a key IS the result, results apply
// idempotently, and a serial, in-process-parallel, and distributed
// tuning run write byte-identical checkpoints (enforced by
// TestTuneSerialDistributedEquivalence).
//
// # Wire format
//
// Every message is one frame: a 4-byte big-endian payload length
// followed by a JSON-encoded Message envelope. A session is strictly
// request/response from the worker's side:
//
//	worker → Hello{name, version}
//	coord  → Welcome{env} | Reject{code: "version-mismatch"}
//	worker → Confirm{locally recomputed space fingerprint}
//	coord  → Accept | Reject{code: "space-mismatch"}
//	repeat:
//	  worker → Result{one result} per job finished since the last request
//	  worker → StatsPush{metrics delta} (optional, one-way, after results)
//	  worker → LeaseReq{max = free slots}
//	  coord  → LeaseGrant{leases} (empty = long-poll timeout, or at once
//	           while the worker still holds leases; Closed = shutdown)
//	worker → Goodbye{reason}      (graceful shutdown; coordinator closes cleanly)
//
// The handshake doubles as a clock-offset probe: Welcome carries the
// coordinator's send time, Confirm carries the worker's receive and send
// times, and the coordinator derives an NTP-style RTT and offset that
// exclude the worker's in-between space reconstruction.
//
// # Lease state machine
//
// A job is pending → leased → done. Leases carry a TTL: an expired
// lease returns its job to pending (counted dist_leases_expired_total)
// and the next grant re-issues it (dist_leases_reassigned_total); a
// worker disconnect expires all its leases immediately. Results are
// applied idempotently by (config key, trace name) — a late result from
// an expired lease is still accepted, and duplicates are dropped
// (dist_results_duplicate_total).
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"autoblox/internal/autodb"
	"autoblox/internal/obs"
)

// ProtocolVersion gates the handshake; incompatible workers are
// rejected before any lease is granted. v2 added the Goodbye frame
// (graceful worker shutdown).
const ProtocolVersion = 2

// MaxFrameBytes bounds one wire frame; a peer announcing a larger
// payload is malformed (or malicious) and the connection is dropped.
const MaxFrameBytes = 16 << 20

// Typed handshake rejections, surfaced by Worker.Run and matched with
// errors.Is.
var (
	// ErrVersionMismatch: the worker speaks a different protocol version.
	ErrVersionMismatch = errors.New("dist: protocol version mismatch")
	// ErrSpaceMismatch: the worker's locally reconstructed parameter
	// space fingerprint disagrees with the coordinator's — typically a
	// stale binary with different grids or constraints. Measuring under
	// a mismatched space would silently remap every grid index, so the
	// handshake refuses.
	ErrSpaceMismatch = errors.New("dist: space fingerprint mismatch")
	// ErrClosed: the coordinator is shut down.
	ErrClosed = errors.New("dist: coordinator closed")
)

// Reject codes on the wire.
const (
	RejectVersion = "version-mismatch"
	RejectSpace   = "space-mismatch"
)

// MsgType discriminates the Message envelope.
type MsgType uint8

const (
	MsgHello      MsgType = iota + 1 // worker → coordinator: introduction
	MsgWelcome                       // coordinator → worker: measurement environment
	MsgConfirm                       // worker → coordinator: recomputed space fingerprint
	MsgAccept                        // coordinator → worker: handshake complete
	MsgReject                        // coordinator → worker: typed handshake rejection
	MsgLeaseReq                      // worker → coordinator: pull up to Max leases
	MsgLeaseGrant                    // coordinator → worker: leased jobs (possibly none)
	MsgResult                        // worker → coordinator: measured results
	MsgStatsPush                     // worker → coordinator: delta-encoded metrics snapshot
	MsgGoodbye                       // worker → coordinator: graceful shutdown notice
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgConfirm:
		return "confirm"
	case MsgAccept:
		return "accept"
	case MsgReject:
		return "reject"
	case MsgLeaseReq:
		return "lease-req"
	case MsgLeaseGrant:
		return "lease-grant"
	case MsgResult:
		return "result"
	case MsgStatsPush:
		return "stats-push"
	case MsgGoodbye:
		return "goodbye"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Message is the wire envelope: exactly the payload matching Type is
// set (Accept carries none).
type Message struct {
	Type       MsgType     `json:"type"`
	Hello      *Hello      `json:"hello,omitempty"`
	Welcome    *Welcome    `json:"welcome,omitempty"`
	Confirm    *Confirm    `json:"confirm,omitempty"`
	Reject     *Reject     `json:"reject,omitempty"`
	LeaseReq   *LeaseReq   `json:"lease_req,omitempty"`
	LeaseGrant *LeaseGrant `json:"lease_grant,omitempty"`
	Result     *ResultMsg  `json:"result,omitempty"`
	StatsPush  *StatsPush  `json:"stats_push,omitempty"`
	Goodbye    *Goodbye    `json:"goodbye,omitempty"`
}

// Hello introduces a worker.
type Hello struct {
	Worker  string `json:"worker"`
	Version int    `json:"version"`
}

// Welcome carries the measurement environment the worker must
// reconstruct locally, plus the lease TTL it is expected to beat.
// CoordUnixNano timestamps the send on the coordinator's clock and
// TraceID names the coordinator's tracing session; together they let a
// worker's trace events be correlated onto the coordinator's timeline.
type Welcome struct {
	Env           Env    `json:"env"`
	LeaseTTLMS    int64  `json:"lease_ttl_ms"`
	CoordUnixNano int64  `json:"coord_unix_nano,omitempty"`
	TraceID       string `json:"trace_id,omitempty"`
}

// Confirm closes the handshake: the worker reports the fingerprint of
// the space it reconstructed from the Welcome env, plus two local clock
// stamps — when the Welcome arrived and when this Confirm left. The
// coordinator combines them with its own send/receive times into an
// NTP-style round-trip and clock-offset estimate that excludes the
// worker's (heavy) space reconstruction between the two stamps.
type Confirm struct {
	SpaceSig     string `json:"space_sig"`
	RecvUnixNano int64  `json:"recv_unix_nano,omitempty"`
	SendUnixNano int64  `json:"send_unix_nano,omitempty"`
}

// Reject is a typed handshake refusal.
type Reject struct {
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
}

// Err maps a rejection onto its typed sentinel.
func (r *Reject) Err() error {
	switch r.Code {
	case RejectVersion:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, r.Detail)
	case RejectSpace:
		return fmt.Errorf("%w: %s", ErrSpaceMismatch, r.Detail)
	default:
		return fmt.Errorf("dist: rejected (%s): %s", r.Code, r.Detail)
	}
}

// LeaseReq pulls up to Max leases; the coordinator long-polls before
// answering an empty grant.
type LeaseReq struct {
	Max int `json:"max"`
}

// Lease is one measurement assignment. Cfg is the full grid-index
// vector (the worker re-derives CfgKey from it and refuses on
// disagreement); Name is the canonical trace name "<cluster>#<i>".
type Lease struct {
	ID     uint64 `json:"id"`
	CfgKey string `json:"cfg_key"`
	Cfg    []int  `json:"cfg"`
	Name   string `json:"name"`
	// TraceID stamps the lease with the coordinator's tracing session so
	// the worker tags its trace events for cross-process correlation.
	TraceID string `json:"trace_id,omitempty"`
}

// LeaseGrant answers a LeaseReq. Empty Leases with Closed=false means
// "nothing available right now, ask again"; Closed=true means the
// coordinator shut down and the worker should exit.
type LeaseGrant struct {
	Leases []Lease `json:"leases,omitempty"`
	Closed bool    `json:"closed,omitempty"`
}

// JobResult is one finished measurement. Err, when non-empty, reports a
// worker-side failure; SimNS is the worker's wall time for the job
// (queue wait in its local pool included), feeding the coordinator's
// BackendStats.SimBusy.
type JobResult struct {
	LeaseID uint64      `json:"lease_id"`
	CfgKey  string      `json:"cfg_key"`
	Name    string      `json:"name"`
	Perf    autodb.Perf `json:"perf"`
	Err     string      `json:"err,omitempty"`
	SimNS   int64       `json:"sim_ns"`
	// StartUnixNano stamps the job's start on the worker's clock; the
	// coordinator offset-corrects it to replay the job as a span on its
	// own merged timeline.
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
}

// ResultMsg returns results; Worker sends one per job, as the job
// finishes. BusyNS is the time the results took on the worker, recorded
// into the per-worker busy histogram.
type ResultMsg struct {
	Worker  string      `json:"worker"`
	Results []JobResult `json:"results"`
	BusyNS  int64       `json:"busy_ns"`
}

// StatsPush ships a worker's metrics to the coordinator: a registry
// snapshot delta-encoded against the previous push (obs.DeltaSince), so
// repeated pushes stay small and absorb idempotently — counter deltas
// add, gauges overwrite, histogram bucket deltas merge exactly. The
// coordinator folds each push into its fleet registry under a
// worker="name" label. One-way: the coordinator never replies.
type StatsPush struct {
	Worker string       `json:"worker"`
	Stats  obs.Snapshot `json:"stats"`
}

// Goodbye announces a worker's graceful shutdown (SIGTERM drain): the
// running jobs finished, final stats were pushed, and the
// connection is about to close cleanly — so the coordinator learns
// immediately instead of waiting out a lease TTL.
type Goodbye struct {
	Reason string `json:"reason,omitempty"`
}

// Validate checks the envelope invariant: a known type with exactly the
// matching payload.
func (m *Message) Validate() error {
	payloads := 0
	for _, p := range []bool{
		m.Hello != nil, m.Welcome != nil, m.Confirm != nil, m.Reject != nil,
		m.LeaseReq != nil, m.LeaseGrant != nil, m.Result != nil, m.StatsPush != nil,
		m.Goodbye != nil,
	} {
		if p {
			payloads++
		}
	}
	want := func(ok bool) error {
		if !ok || payloads != 1 {
			return fmt.Errorf("dist: malformed %s message", m.Type)
		}
		return nil
	}
	switch m.Type {
	case MsgHello:
		return want(m.Hello != nil)
	case MsgWelcome:
		return want(m.Welcome != nil)
	case MsgConfirm:
		return want(m.Confirm != nil)
	case MsgAccept:
		if payloads != 0 {
			return fmt.Errorf("dist: malformed %s message", m.Type)
		}
		return nil
	case MsgReject:
		return want(m.Reject != nil)
	case MsgLeaseReq:
		return want(m.LeaseReq != nil)
	case MsgLeaseGrant:
		return want(m.LeaseGrant != nil)
	case MsgResult:
		return want(m.Result != nil)
	case MsgStatsPush:
		return want(m.StatsPush != nil)
	case MsgGoodbye:
		return want(m.Goodbye != nil)
	default:
		return fmt.Errorf("dist: unknown message type %d", uint8(m.Type))
	}
}

// Encode writes one framed message.
func Encode(w io.Writer, m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encode %s: %w", m.Type, err)
	}
	if len(body) > MaxFrameBytes {
		return fmt.Errorf("dist: %s frame exceeds %d bytes", m.Type, MaxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// Decode reads one framed message, validating length, JSON shape and
// the type/payload invariant.
func Decode(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("dist: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("dist: decode frame: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
