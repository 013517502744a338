// Command grpsoak is the long-haul soak harness: it runs hours of
// simulated mobile churn (random-waypoint motion, optional urban wall
// grid, nodes joining and leaving) on the parallel engine, observes every
// round through the incremental tracker (internal/obs), streams its
// records to one JSONL file (-stats), and prints a final convergence /
// violation report.
//
// Usage:
//
//	grpsoak -n 500 -rounds 100000 -workers 4 -join 0.1 -leave 0.1 -stats soak.jsonl
//	grpsoak -n 2000 -duration 2h -urban -stats soak.jsonl -every 10
//	grpsoak -n 500 -rounds 20000 -static -chaos mixed -stats chaos.jsonl
//
// The run is deterministic for a fixed -seed at any -workers width;
// -duration caps wall-clock time (use -rounds alone for bit-reproducible
// runs). The exit status is non-zero if the registry's violation
// counters drift from the streamed records — the self-check behind the
// soak acceptance criterion.
//
// -chaos arms the deterministic fault injector (internal/fault) with a
// named profile (crash, byzantine, flap, burst, mixed); the convergence
// monitor then measures a stabilization episode per fault burst, and each
// closed episode's record joins the -stats stream. A chaos run exits
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
// build, the tracker's rows swept per observation and its ΠM verdicts
// reused and settled by BFS; -trace-wakes adds one record per executed
// compute to the -stats stream, attributing the skip-check gate that
// woke the node. -every thins only the per-round stat records: flight,
// episode and wake records are written whole. On a
// chaos run the registry's injection counters are cross-checked against
// the injector's own totals, and any drift exits non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/introspect"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments; it returns the exit status: 2 for
// a bad flag or set-up, 1 for a failed run or an episode left open.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("grpsoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 500, "initial population")
	dmax := fs.Int("dmax", 3, "group diameter bound Dmax")
	radius := fs.Float64("range", 2.5, "radio range")
	side := fs.Float64("side", 0, "world side (0: constant density from n)")
	urban := fs.Bool("urban", false, "add a Manhattan-style wall grid")
	dt := fs.Float64("dt", 0.2, "simulated seconds per tick")
	seed := fs.Int64("seed", 1, "random seed (engine, mobility and churn)")
	workers := fs.Int("workers", 4, "engine and tracker fan-out width")
	join := fs.Float64("join", 0.1, "per-round probability of one node joining")
	leave := fs.Float64("leave", 0.1, "per-round probability of one node leaving")
	active := fs.Float64("active", 1, "fraction of nodes that move (in (0,1): commuter regime, exercises the delta-incremental graph; 1: classic all-moving waypoint)")
	static := fs.Bool("static", false, "freeze mobility (chaos runs: isolate fault-driven disturbances)")
	rounds := fs.Int("rounds", 100000, "rounds to simulate")
	duration := fs.Duration("duration", 0, "wall-clock cap (0: none)")
	stats := fs.String("stats", "", "stream the run's records to this file as JSONL: per-round stats, and the flight, episode and wake records when armed")
	every := fs.Int("every", 1, "record every k-th round's stats only")
	progress := fs.Int("progress", 2000, "print a progress line every k rounds (0: quiet)")
	chaos := fs.String("chaos", "", "arm the fault injector with this profile (crash, byzantine, flap, burst, mixed)")
	chaosIntensity := fs.Float64("chaos-intensity", 1, "scale the chaos profile's fault rates")
	chaosUntil := fs.Int("chaos-until", 0, "stand the fault schedule down after this round — no new faults, channel adversities off (0: whole run)")
	chaosSeed := fs.Int64("chaos-seed", 0, "fault-injector seed (0: derive from -seed)")
	window := fs.Int("window", 0, "monitor confirmation window in rounds (0: default)")
	introspectAddr := fs.String("introspect", "", "serve net/http/pprof and the flight-recorder registry JSON on this address for the run's lifetime (e.g. localhost:6060)")
	flightEvery := fs.Int("flight-every", 0, "stream a flight-recorder snapshot record into -stats every k rounds, plus one at run end (0: off)")
	traceWakes := fs.Bool("trace-wakes", false, "stream per-node wake-attribution records into -stats (which skip-check gate woke each computed node, and whose traffic)")
	shards := fs.Int("shards", 1, "split the run over this many shard owners (internal/dist); >1 requires -join 0 -leave 0 and no -chaos, -flight-every, -trace-wakes or -introspect, and the merged run is bit-identical to -shards 1")
	transport := fs.String("transport", "loopback", "shard transport: loopback (all shards in this process) or tcp (one process per shard; see -peers); a shard whose peer dies, or stays silent for 30 s, exits non-zero with an error naming that peer and the exchange")
	shardIndex := fs.Int("shard-index", 0, "this process's shard under -transport tcp")
	peers := fs.String("peers", "", "comma-separated listen addresses of all shards, index-aligned, under -transport tcp (this process listens on its own entry)")
	fingerprint := fs.Bool("fingerprint", false, "print the end-of-run state fingerprint (fold of every node's state hash) — the cross-process bit-identity witness")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "grpsoak:", err)
		return code
	}

	cfg := obs.SoakConfig{
		N: *n, Dmax: *dmax, Range: *radius, Side: *side, Urban: *urban, DT: *dt,
		Seed: *seed, Workers: *workers, JoinRate: *join, LeaveRate: *leave,
		ActiveFraction: *active, Static: *static, MaxRounds: *rounds, Duration: *duration,
		ConfirmWindow: *window, IntrospectAddr: *introspectAddr, FlightEvery: *flightEvery,
		Fingerprint: *fingerprint,
	}
	if *chaos != "" {
		prof, err := fault.Preset(*chaos, *chaosIntensity)
		if err != nil {
			return fail(2, err)
		}
		prof.Seed, prof.Until = *chaosSeed, *chaosUntil
		if prof.Seed == 0 {
			prof.Seed = *seed ^ 0x6368616f73 // "chaos"
		}
		cfg.Fault = prof
	}
	if *traceWakes && *stats == "" {
		return fail(2, errors.New("-trace-wakes requires -stats"))
	}
	if *shards > 1 {
		switch {
		case *transport == "tcp" && *peers == "":
			return fail(2, errors.New("-transport tcp requires -peers"))
		case *transport != "tcp" && *transport != "loopback":
			return fail(2, fmt.Errorf("unknown -transport %q", *transport))
		}
	}
	if *stats != "" {
		if err := openStream(&cfg, *stats, *every, *traceWakes); err != nil {
			return fail(2, err)
		}
	}
	if *progress > 0 {
		start := time.Now()
		cfg.ProgressEvery = *progress
		cfg.Progress = func(r int, st obs.RoundStats) {
			fmt.Fprintf(stdout, "round %7d  t=%8s  n=%-6d groups=%-6d ΠA=%v ΠS_rate=%.3f nee=%d\n",
				r, time.Since(start).Round(time.Second), st.Nodes, st.Groups,
				st.Agreement, st.SafetyRate, st.ExternalEdges)
		}
	}

	res, err := execute(cfg, *shards, *transport, *shardIndex, *peers, stderr)
	if err != nil {
		return fail(1, err)
	}
	if res == nil {
		// Non-lead shard of a TCP mesh: the lead prints the merged report.
		return 0
	}
	return report(res, cfg.Fault != nil, *flightEvery, *workers, *fingerprint, stdout, stderr)
}

// openStream points cfg's records at one JSONL stream at path: the
// per-round records through the decimating wrapper (every k-th round),
// every other kind — episodes on a chaos run, wakes when traced —
// straight to the file.
func openStream(cfg *obs.SoakConfig, path string, every int, traceWakes bool) error {
	s, err := obs.CreateJSONLSink(path, 0)
	if err != nil {
		return err
	}
	cfg.Sink = obs.Every(every, s)
	if cfg.Fault != nil {
		cfg.Episodes = s.WriteEpisode
	}
	if traceWakes {
		cfg.WakeTrace = func(round int, w introspect.WakeRec) error {
			return s.WriteWake(obs.NewWakeRecord(round, w))
		}
	}
	return nil
}

// execute runs cfg in this process, or over shards (internal/dist), whose
// Config.Validate rejects what the split cannot carry (churn, chaos,
// wall-clock caps, -flight-every, -trace-wakes, -introspect). It closes
// (and flushes) the sink before returning, failed run or not: on a failed
// run the streamed tail is exactly what the operator needs. A nil result
// without an error is a non-lead shard of a TCP mesh.
func execute(cfg obs.SoakConfig, shards int, transport string, shardIndex int, peers string, stderr io.Writer) (*obs.SoakResult, error) {
	var res *obs.SoakResult
	var err error
	switch dcfg := (dist.Config{Soak: cfg, Shards: shards}); {
	case shards > 1 && transport == "tcp":
		res, err = dist.RunTCP(dcfg, shardIndex, strings.Split(peers, ","))
	case shards > 1:
		res, err = dist.RunLoopback(dcfg)
	default:
		res, err = obs.RunSoak(cfg)
	}
	if cfg.Sink != nil {
		if cerr := cfg.Sink.Close(); cerr != nil {
			fmt.Fprintln(stderr, "grpsoak: closing sink:", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	return res, err
}

// report prints the run's report and returns the exit status.
func report(res *obs.SoakResult, chaos bool, flightEvery, workers int, fingerprint bool, stdout, stderr io.Writer) int {
	fmt.Fprint(stdout, res.Report())
	if flightEvery > 0 {
		fmt.Fprint(stdout, res.IdleReport(workers))
		fmt.Fprint(stdout, res.PoolReport())
		fmt.Fprint(stdout, res.SweepReport())
	}
	if fingerprint {
		fmt.Fprintf(stdout, "fingerprint: %016x\n", res.Fingerprint)
	}

	// Chaos acceptance: every episode — directly injected or aftershock
	// (an unexcused break with no fault in flight opens one too) — must
	// have re-stabilized within the run. Leave a fault-free tail with
	// -chaos-until so the last episode has room to close.
	if chaos && res.EpisodesOpen > 0 {
		fmt.Fprintf(stderr, "grpsoak: %d stabilization episode(s) still open at run end\n", res.EpisodesOpen)
		return 1
	}
	return 0
}
