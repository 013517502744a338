package obs

import (
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/introspect"
)

// FlightRecord is one flight-recorder snapshot in a JSONL record stream.
// Unlike RoundStats and Episode records (whose field names identify
// them), flight records carry an explicit "type":"flight" discriminator
// so consumers of a mixed stream can route on it. Counters is the
// deterministic section (bit-identical at any worker count for the same
// run); PhaseNs and BusyNs are the wall-clock section and are
// machine-dependent — the two sections must never be conflated, which is
// why the snapshot keeps them in separate objects.
type FlightRecord struct {
	Type     string            `json:"type"` // always "flight"
	Round    int               `json:"round"`
	Tick     int               `json:"tick"`
	Counters map[string]uint64 `json:"counters"`
	PhaseNs  map[string]int64  `json:"phase_ns"`
	BusyNs   map[string]int64  `json:"busy_ns"`
}

// NewFlightRecord snapshots an engine's flight recorder at round r.
func NewFlightRecord(r int, e *engine.Engine) FlightRecord {
	snap := e.Introspect().Snapshot()
	return FlightRecord{
		Type:     "flight",
		Round:    r,
		Tick:     e.Tick(),
		Counters: snap.Counters,
		PhaseNs:  snap.PhaseNs,
		BusyNs:   snap.BusyNs,
	}
}

// WakeRecord is one per-node wake-attribution trace record
// ("type":"wake"): a node that ran a full compute, the skip-check gate
// that woke it, and — for the inbox causes — the sender whose traffic or
// silence did it (omitted otherwise).
type WakeRecord struct {
	Type   string       `json:"type"` // always "wake"
	Round  int          `json:"round"`
	Node   ident.NodeID `json:"node"`
	Cause  string       `json:"cause"`
	Sender ident.NodeID `json:"sender,omitempty"`
}

// NewWakeRecord converts one engine wake into its JSONL trace record.
func NewWakeRecord(round int, w introspect.WakeRec) WakeRecord {
	return WakeRecord{
		Type:   "wake",
		Round:  round,
		Node:   w.Node,
		Cause:  w.Cause.String(),
		Sender: w.Sender,
	}
}
