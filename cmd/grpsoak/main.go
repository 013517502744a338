// Command grpsoak is the long-haul soak harness: it runs hours of
// simulated mobile churn (random-waypoint motion, optional urban wall
// grid, nodes joining and leaving) on the parallel engine, observes every
// round through the incremental tracker (internal/obs), streams per-round
// stat records to a JSONL or CSV sink, and prints a final convergence /
// violation report.
//
// Usage:
//
//	grpsoak -n 500 -rounds 100000 -workers 4 -join 0.1 -leave 0.1 -stats soak.jsonl
//	grpsoak -n 2000 -duration 2h -urban -stats soak.csv -every 10
//	grpsoak -n 500 -rounds 20000 -static -chaos mixed -episodes episodes.jsonl
//
// The run is deterministic for a fixed -seed at any -workers width;
// -duration caps wall-clock time (use -rounds alone for bit-reproducible
// runs). The exit status is non-zero if the tracker's cumulative
// violation counters drift from the streamed records — the self-check
// behind the soak acceptance criterion.
//
// -chaos arms the deterministic fault injector (internal/fault) with a
// named profile (crash, byzantine, flap, burst, mixed); the convergence
// monitor then measures a stabilization episode per fault burst and
// -episodes streams the per-episode JSONL records. A chaos run exits
// non-zero when an episode is still open at the end — the world never
// re-stabilized from a fault, or from an aftershock (an unexcused ΠC
// break with no fault in flight, which opens an episode of its own).
// Use -chaos-until to stop injecting before the run ends, leaving the
// tail room to close the last episode.
//
// -shards N splits the run over N slab-owner processes (internal/dist):
// each shard replicates the world, runs the engine over its slab, and
// exchanges per-tick boundary deltas. -transport loopback runs every
// shard inside this process; -transport tcp runs one shard per OS
// process (-shard-index i -peers addr0,addr1,...), with shard 0 printing
// the merged report. The merged run is bit-identical to -shards 1 on
// the same scenario (requires -join 0 -leave 0, no -chaos, no
// -duration, and none of -introspect, -flight-every, -trace-wakes, which
// are single-process only and rejected); -fingerprint prints the
// end-of-run state fold that CI compares across process counts.
//
// -introspect serves net/http/pprof and the engine's flight-recorder
// registry as JSON for the run's lifetime; -flight-every interleaves
// periodic flight-recorder snapshot records ("type":"flight") into the
// -stats JSONL stream, and ends the report with the idle time of the
// engine's three fanned-out phases (width · phase time − the summed time
// their participants spent working), the broadcast pools' misses per
// build and the tracker's rows swept per observation;
// -trace-wakes streams one record per executed
// compute attributing the skip-check gate that woke the node. On a
// chaos run the registry's injection counters are cross-checked against
// the injector's own totals, and any drift exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/introspect"
	"repro/internal/obs"
)

func main() {
	n := flag.Int("n", 500, "initial population")
	dmax := flag.Int("dmax", 3, "group diameter bound Dmax")
	radius := flag.Float64("range", 2.5, "radio range")
	side := flag.Float64("side", 0, "world side (0: constant density from n)")
	urban := flag.Bool("urban", false, "add a Manhattan-style wall grid")
	dt := flag.Float64("dt", 0.2, "simulated seconds per tick")
	seed := flag.Int64("seed", 1, "random seed (engine, mobility and churn)")
	workers := flag.Int("workers", 4, "engine and tracker fan-out width")
	join := flag.Float64("join", 0.1, "per-round probability of one node joining")
	leave := flag.Float64("leave", 0.1, "per-round probability of one node leaving")
	active := flag.Float64("active", 1, "fraction of nodes that move (in (0,1): commuter regime, exercises the delta-incremental graph; 1: classic all-moving waypoint)")
	static := flag.Bool("static", false, "freeze mobility (chaos runs: isolate fault-driven disturbances)")
	rounds := flag.Int("rounds", 100000, "rounds to simulate")
	duration := flag.Duration("duration", 0, "wall-clock cap (0: none)")
	stats := flag.String("stats", "", "stream per-round records to this file (.csv: CSV, else JSONL)")
	every := flag.Int("every", 1, "record every k-th round only")
	flush := flag.Int("flush", 0, "sink flush period in records (0: default)")
	progress := flag.Int("progress", 2000, "print a progress line every k rounds (0: quiet)")
	chaos := flag.String("chaos", "", "arm the fault injector with this profile (crash, byzantine, flap, burst, mixed)")
	chaosIntensity := flag.Float64("chaos-intensity", 1, "scale the chaos profile's fault rates")
	chaosUntil := flag.Int("chaos-until", 0, "stand the fault schedule down after this round — no new faults, channel adversities off (0: whole run)")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-injector seed (0: derive from -seed)")
	episodes := flag.String("episodes", "", "stream stabilization-episode JSONL records to this file")
	window := flag.Int("window", 0, "monitor confirmation window in rounds (0: default)")
	introspectAddr := flag.String("introspect", "", "serve net/http/pprof and the flight-recorder registry JSON on this address for the run's lifetime (e.g. localhost:6060)")
	flightEvery := flag.Int("flight-every", 0, "stream a flight-recorder snapshot record into -stats every k rounds, plus one at run end (0: off; JSONL sinks only)")
	traceWakes := flag.String("trace-wakes", "", "stream per-node wake-attribution JSONL records to this file (which skip-check gate woke each computed node, and whose traffic)")
	shards := flag.Int("shards", 1, "split the run over this many shard owners (internal/dist); >1 requires -join 0 -leave 0 and no -chaos, -flight-every, -trace-wakes or -introspect, and the merged run is bit-identical to -shards 1")
	transport := flag.String("transport", "loopback", "shard transport: loopback (all shards in this process) or tcp (one process per shard; see -peers); a shard whose peer dies, or stays silent for 30 s, exits non-zero with an error naming that peer and the exchange")
	shardIndex := flag.Int("shard-index", 0, "this process's shard under -transport tcp")
	peers := flag.String("peers", "", "comma-separated listen addresses of all shards, index-aligned, under -transport tcp (this process listens on its own entry)")
	fingerprint := flag.Bool("fingerprint", false, "print the end-of-run state fingerprint (fold of every node's state hash) — the cross-process bit-identity witness")
	flag.Parse()

	cfg := obs.SoakConfig{
		N:              *n,
		Dmax:           *dmax,
		Range:          *radius,
		Side:           *side,
		Urban:          *urban,
		DT:             *dt,
		Seed:           *seed,
		Workers:        *workers,
		JoinRate:       *join,
		LeaveRate:      *leave,
		ActiveFraction: *active,
		Static:         *static,
		MaxRounds:      *rounds,
		Duration:       *duration,
		ConfirmWindow:  *window,
		IntrospectAddr: *introspectAddr,
		FlightEvery:    *flightEvery,
	}
	if *chaos != "" {
		prof, err := fault.Preset(*chaos, *chaosIntensity)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grpsoak:", err)
			os.Exit(2)
		}
		prof.Seed = *chaosSeed
		if prof.Seed == 0 {
			prof.Seed = *seed ^ 0x6368616f73 // "chaos"
		}
		prof.Until = *chaosUntil
		cfg.Fault = prof
	}
	if *stats != "" {
		s, err := obs.OpenSink(*stats, *flush)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grpsoak:", err)
			os.Exit(2)
		}
		cfg.Sink = obs.Every(*every, s)
	}
	var epSink *obs.JSONLSink
	if *episodes != "" {
		if cfg.Fault == nil {
			fmt.Fprintln(os.Stderr, "grpsoak: -episodes requires -chaos")
			os.Exit(2)
		}
		s, err := obs.CreateJSONLSink(*episodes, *flush)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grpsoak:", err)
			os.Exit(2)
		}
		epSink = s
		cfg.Episodes = s.WriteEpisode
	}
	var wakeSink *obs.JSONLSink
	if *traceWakes != "" {
		s, err := obs.CreateJSONLSink(*traceWakes, *flush)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grpsoak:", err)
			os.Exit(2)
		}
		wakeSink = s
		cfg.WakeTrace = func(round int, w introspect.WakeRec) error {
			return s.WriteWake(obs.NewWakeRecord(round, w))
		}
	}
	if *progress > 0 {
		start := time.Now()
		cfg.ProgressEvery = *progress
		cfg.Progress = func(r int, st obs.RoundStats) {
			fmt.Printf("round %7d  t=%8s  n=%-6d groups=%-6d ΠA=%v ΠS_rate=%.3f nee=%d\n",
				r, time.Since(start).Round(time.Second), st.Nodes, st.Groups,
				st.Agreement, st.SafetyRate, st.ExternalEdges)
		}
	}

	cfg.Fingerprint = *fingerprint
	var res *obs.SoakResult
	var err error
	if *shards > 1 {
		// Distributed run: dist.Config.Validate rejects what the split
		// cannot carry (churn, chaos, wall-clock caps, -flight-every,
		// -trace-wakes, -introspect, -episodes).
		dcfg := dist.Config{Soak: cfg, Shards: *shards}
		switch *transport {
		case "loopback":
			res, err = dist.RunLoopback(dcfg)
		case "tcp":
			if *peers == "" {
				fmt.Fprintln(os.Stderr, "grpsoak: -transport tcp requires -peers")
				os.Exit(2)
			}
			res, err = dist.RunTCP(dcfg, *shardIndex, strings.Split(*peers, ","))
		default:
			fmt.Fprintf(os.Stderr, "grpsoak: unknown -transport %q\n", *transport)
			os.Exit(2)
		}
	} else {
		res, err = obs.RunSoak(cfg)
	}
	// Close (and flush) the sinks before any exit: on a failed run the
	// streamed tail is exactly what the operator needs.
	if cfg.Sink != nil {
		if cerr := cfg.Sink.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "grpsoak: closing sink:", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	if epSink != nil {
		if cerr := epSink.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "grpsoak: closing episode sink:", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	if wakeSink != nil {
		if cerr := wakeSink.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "grpsoak: closing wake sink:", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "grpsoak:", err)
		os.Exit(1)
	}
	if res == nil {
		// Non-lead shard of a TCP mesh: the lead prints the merged report.
		return
	}
	fmt.Print(res.Report())
	if *flightEvery > 0 {
		fmt.Print(res.IdleReport(*workers))
		fmt.Print(res.PoolReport())
		fmt.Print(res.SweepReport())
	}
	if *fingerprint {
		fmt.Printf("fingerprint: %016x\n", res.Fingerprint)
	}

	// Chaos acceptance: every episode — directly injected or aftershock
	// (an unexcused break with no fault in flight opens one too) — must
	// have re-stabilized within the run. Leave a fault-free tail with
	// -chaos-until so the last episode has room to close.
	if cfg.Fault != nil && res.EpisodesOpen > 0 {
		fmt.Fprintf(os.Stderr, "grpsoak: %d stabilization episode(s) still open at run end\n", res.EpisodesOpen)
		os.Exit(1)
	}
}
