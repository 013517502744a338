package obs

// The convergence monitor: the measurement half of the fault-injection
// subsystem (internal/fault). It timestamps injected faults and measures
// *stabilization time* — the number of rounds from the last fault until
// the legitimacy predicates hold and stay held for a confirmation
// window — turning the soak suite's "unexcused violations = 0" invariant
// into a recovery-latency distribution, the paper's headline
// self-stabilization property made measurable.
//
// Legitimacy, for episode purposes, is the operational fixpoint
//
//	quiescent (no Ω membership change)  ∧  fresh (ΠS rate = 1)  ∧  (ΠC ∨ ¬ΠT)
//
// — the partition stopped moving, every group satisfies the diameter
// bound, and there was no unexcused continuity break. Two strict global
// predicates are deliberately NOT required:
//
//   - Raw ΠT: an environment predicate (false whenever mobility or churn
//     moved the topology across the observation) — demanding it would
//     measure the mobility model, not the protocol. A ΠC break while ΠT
//     held is unexcused and keeps the episode open; a break under a
//     broken ΠT is the environment's fault and does not.
//   - Strict Converged (ΠA ∧ ΠS ∧ ΠM): ΠM is an any-two-groups global
//     conjunction and ΠA an all-nodes one; at realistic scale a single
//     stable cross-frontier disagreement holds them false forever even
//     in a fault-free static world (the tracker still reports them per
//     round — they gate nothing here). Quiescence + per-group freshness
//     is the fixpoint the protocol actually reaches and re-reaches after
//     a fault, which is what stabilization time must measure.

// Episode is one fault-to-stabilization recovery record: one object in
// the run's JSONL stream (JSONLSink.WriteEpisode), told apart from the
// stats records by its "episode" field.
type Episode struct {
	ID int `json:"episode"`

	OpenedRound    int `json:"opened_round"`     // round of the episode's first fault
	LastFaultRound int `json:"last_fault_round"` // round of its last fault
	Faults         int `json:"faults"`           // fault events attributed to it

	// StabilizedRound is the first round of the legitimacy streak that
	// confirmed; ConfirmedRound the round the confirmation window
	// completed (StabilizedRound + Window - 1).
	StabilizedRound int `json:"stabilized_round"`
	ConfirmedRound  int `json:"confirmed_round"`

	// StabilizationRounds = StabilizedRound - LastFaultRound: rounds from
	// the last disturbance to durable legitimacy. 0 means the world never
	// left the legitimate region (the fault was absorbed instantly).
	StabilizationRounds int `json:"stab_rounds"`

	// ViolationRounds counts non-legitimate rounds while the episode was
	// open; Unexcused the subset that were unexcused ΠC breaks (ΠC false
	// while ΠT held).
	ViolationRounds int `json:"violation_rounds"`
	Unexcused       int `json:"unexcused"`

	// Aftershock marks an episode opened by an unexcused break with no
	// injected fault in flight (see Monitor.Aftershocks): a delayed
	// consequence of an earlier fault — a deferred boundary-hold expiring
	// into a merge-overshoot repair — that must re-stabilize like any
	// directly injected one.
	Aftershock bool `json:"aftershock,omitempty"`
}

// DefaultConfirmWindow is the confirmation window when the caller passes
// 0: legitimacy must hold this many consecutive observations before an
// episode closes.
const DefaultConfirmWindow = 5

// Monitor measures stabilization episodes. Drive it in lockstep with the
// tracker: RecordFault for every injected fault before the round steps,
// then ObserveRound with the tracker's RoundStats after. All methods run
// on the coordinator; the monitor consumes only the deterministic record
// stream, so its episodes are bit-identical at any worker count.
type Monitor struct {
	// Window is the confirmation window (rounds of sustained legitimacy
	// required to close an episode).
	Window int

	// Aftershocks, when set, turns an unexcused break observed with no
	// episode open into a new (aftershock) episode instead of a
	// free-floating counter: on a churn-free chaos run nothing else can
	// cause one, so it is fault-attributable even when the causal chain —
	// a corrupted reload's time-bomb, a deferred merge repair — outlives
	// any fixed confirmation window. The break counts as the episode's
	// first unexcused round, not in UnexcusedOutside; the episode must
	// then re-stabilize like any other. RunSoak sets this whenever the
	// injector is armed.
	Aftershocks bool

	open   *Episode
	streak int
	nextID int

	// Cumulative aggregates over closed episodes.
	Episodes         int
	TotalStabRounds  int
	MaxStabRounds    int
	TotalUnexcused   int
	UnexcusedOutside int // unexcused ΠC breaks with no episode open
	FaultsRecorded   int
}

// NewMonitor returns a monitor with the given confirmation window (≤ 0
// selects DefaultConfirmWindow).
func NewMonitor(window int) *Monitor {
	if window <= 0 {
		window = DefaultConfirmWindow
	}
	return &Monitor{Window: window}
}

// Legitimate is the episode-closing predicate over one observation (see
// the package comment for why raw ΠT is excluded).
func Legitimate(st RoundStats) bool {
	return st.MembershipChanges == 0 && st.SafetyRate == 1 &&
		(st.Continuity || !st.Topological)
}

// RecordFault attributes one injected fault to the current episode,
// opening one if none is open. round is the round about to be stepped
// (the tracker will observe it as st.Round == round).
func (m *Monitor) RecordFault(round int) {
	m.FaultsRecorded++
	if m.open == nil {
		m.nextID++
		m.open = &Episode{ID: m.nextID, OpenedRound: round}
	}
	m.open.LastFaultRound = round
	m.open.Faults++
	m.streak = 0
}

// Open returns the currently open episode, or nil when the world is
// stabilized (a fault-free run always returns nil — the property test
// pins this).
func (m *Monitor) Open() *Episode { return m.open }

// ObserveRound feeds one tracker observation. active reports whether the
// injector still has an adversity in flight (a liar armed, a flapped
// neighborhood down): while true the confirmation streak cannot start,
// so a steady lie that holds the world in a plausible configuration
// never counts as stabilized. It returns the episode closed by this
// observation, if any.
func (m *Monitor) ObserveRound(st RoundStats, active bool) (Episode, bool) {
	legit := Legitimate(st)
	unexcused := !st.Continuity && st.Topological

	if m.open == nil {
		// Only after the first injected fault: the bootstrap phase of a
		// fresh world produces formation-time breaks (the soak suite's
		// documented "bootstrap" column) that are nobody's aftershock.
		switch {
		case unexcused && m.Aftershocks && m.FaultsRecorded > 0:
			m.nextID++
			m.open = &Episode{
				ID: m.nextID, OpenedRound: st.Round, LastFaultRound: st.Round,
				ViolationRounds: 1, Unexcused: 1, Aftershock: true,
			}
			m.streak = 0
		case unexcused:
			m.UnexcusedOutside++
		}
		return Episode{}, false
	}

	if !legit {
		m.open.ViolationRounds++
		if unexcused {
			m.open.Unexcused++
		}
	}
	if !legit || active {
		m.streak = 0
		return Episode{}, false
	}
	m.streak++
	if m.streak < m.Window {
		return Episode{}, false
	}

	ep := *m.open
	ep.StabilizedRound = st.Round - m.Window + 1
	ep.ConfirmedRound = st.Round
	ep.StabilizationRounds = ep.StabilizedRound - ep.LastFaultRound
	if ep.StabilizationRounds < 0 {
		ep.StabilizationRounds = 0
	}
	m.open = nil
	m.streak = 0

	m.Episodes++
	m.TotalStabRounds += ep.StabilizationRounds
	if ep.StabilizationRounds > m.MaxStabRounds {
		m.MaxStabRounds = ep.StabilizationRounds
	}
	m.TotalUnexcused += ep.Unexcused
	return ep, true
}

// MeanStabRounds returns the mean stabilization time over closed
// episodes (0 when none closed).
func (m *Monitor) MeanStabRounds() float64 {
	if m.Episodes == 0 {
		return 0
	}
	return float64(m.TotalStabRounds) / float64(m.Episodes)
}
