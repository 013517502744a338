// Package grp is the public face of this reproduction of "Best-effort
// Group Service in Dynamic Networks" (Ducourthial, Khalfallah, Petit,
// SPAA 2010): the GRP self-stabilizing group membership protocol with the
// best-effort continuity property, plus the simulation and measurement
// substrates built for it.
//
// The important entry points:
//
//   - NewNode / Config — the pure protocol state machine (drive it with
//     your own transport by calling Receive, Compute and BuildMessage).
//   - NewSim / NewStaticSim — the deterministic discrete-event simulator
//     used by every experiment, backed by the phase-parallel engine of
//     internal/engine: set SimParams.Workers > 1 to fan node work out
//     over a worker pool with a bit-identical trace.
//   - SnapshotOf / RunUntilConverged — a simulation's configuration as a
//     Snapshot, which carries the specification predicates ΠA, ΠS, ΠM
//     (with Topological and Continuity for ΠT and ΠC), and the loop
//     stepping rounds until ΠA ∧ ΠS ∧ ΠM holds.
//
// See DESIGN.md for the system inventory and the faithfulness notes, and
// EXPERIMENTS.md for the reproduced results.
package grp

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/priority"
	"repro/internal/radio"
	"repro/internal/space"
)

// Protocol core.
type (
	// NodeID identifies a protocol node.
	NodeID = ident.NodeID
	// Config is the protocol configuration (Dmax and variants).
	Config = core.Config
	// Node is one GRP protocol endpoint.
	Node = core.Node
	// Message is a GRP broadcast.
	Message = core.Message
	// Priority is the totally ordered node/group priority.
	Priority = priority.P
)

// NewNode returns a freshly booted protocol node.
func NewNode(id NodeID, cfg Config) *Node { return core.NewNode(id, cfg) }

// Graph substrate.
type (
	// Graph is an undirected communication topology, never edited in
	// place.
	Graph = graph.G
	// GraphEdit is the editable copy of a Graph that StaticTopology.Edit
	// hands to its callback.
	GraphEdit = graph.Ref
)

// Topology generators re-exported for examples and quick starts.
var (
	Line            = graph.Line
	Ring            = graph.Ring
	Grid            = graph.Grid
	Star            = graph.Star
	Complete        = graph.Complete
	Clusters        = graph.Clusters
	RandomGeometric = graph.RandomGeometric
)

// Simulation.
type (
	// Sim is the deterministic discrete-event simulator.
	Sim = engine.Engine
	// SimParams configures a simulation.
	SimParams = engine.Params
	// SpatialTopology animates nodes in the plane with a mobility model.
	SpatialTopology = engine.SpatialTopology
	// StaticTopology wraps a graph that changes only through its Edit.
	StaticTopology = engine.StaticTopology
)

// NewSim builds a simulation over an arbitrary topology.
func NewSim(p SimParams, topo engine.Topology) *Sim { return engine.New(p, topo) }

// NewStaticSim builds a simulation over a fixed graph.
func NewStaticSim(p SimParams, g *Graph) *Sim { return engine.NewStatic(p, g) }

// NewSpatialTopology places nodes with the mobility model and returns the
// animated topology.
var NewSpatialTopology = engine.NewSpatialTopology

// Specification predicates.
type (
	// Snapshot is one configuration: topology plus every node's view.
	Snapshot = metrics.Snapshot
	// Tracker accumulates churn and continuity statistics over a run.
	Tracker = metrics.Tracker
)

// Snapshots of a running simulation (a *Sim).
var (
	// SnapshotOf captures a simulation's current configuration.
	SnapshotOf = metrics.SnapshotOf
	// RunUntilConverged steps a simulation round by round until
	// ΠA ∧ ΠS ∧ ΠM at the given Dmax holds for `stable` consecutive rounds.
	RunUntilConverged = metrics.RunUntilConverged
)

// Best-effort predicates over consecutive snapshots.
var (
	// Topological is ΠT: group members stayed within Dmax.
	Topological = metrics.Topological
	// Continuity is ΠC: no node disappeared from any group.
	Continuity = metrics.Continuity
)

// NewTracker returns an empty churn tracker.
func NewTracker() *Tracker { return metrics.NewTracker() }

// Mobility and space, for spatial simulations.
type (
	// World is the Euclidean plane with the vicinity relation.
	World = space.World
	// Point is a position.
	Point = space.Point
	// MobilityModel moves nodes step by step.
	MobilityModel = mobility.Model
	// Waypoint is the random-waypoint mobility model.
	Waypoint = mobility.Waypoint
	// Highway is the VANET-style wrap-around highway model.
	Highway = mobility.Highway
	// Convoy is the rigid platoon with an optional straggler.
	Convoy = mobility.Convoy
)

// NewWorld returns an empty world with the given radio range.
func NewWorld(txRange float64) *World { return space.NewWorld(txRange) }

// Radio channel models.
type (
	// Channel arbitrates which receptions succeed in a slot.
	Channel = radio.Channel
	// PerfectRadio delivers everything in range.
	PerfectRadio = radio.Perfect
	// LossyRadio drops receptions i.i.d. with probability P.
	LossyRadio = radio.Lossy
	// CollisionRadio implements the paper's interference model.
	CollisionRadio = radio.Collision
)
