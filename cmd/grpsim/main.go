// Command grpsim runs one GRP scenario and prints the evolution of the
// groups round by round — the quickest way to watch the protocol converge,
// split and merge.
//
// Usage:
//
//	grpsim -topo line -n 8 -dmax 3 -rounds 60 [-seed 1] [-loss 0.1] [-watch] [-workers 4]
//	grpsim -topo highway -n 12 -dmax 4 -rounds 120
//	grpsim -topo waypoint -n 200 -rounds 300 -stats run.jsonl
//
// Topologies: line, ring, grid (rows x cols ≈ n), star, clique, clusters,
// rgg, highway (mobile), waypoint (mobile), convoy (mobile), urban
// (mobile, obstacle walls). The mobile worlds scale their area with n
// (constant density), so -n 20000 is a realistic spatial-index workload.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/space"
)

func main() {
	topo := flag.String("topo", "line", "topology: line ring grid star clique clusters rgg highway waypoint convoy urban")
	n := flag.Int("n", 8, "number of nodes")
	dmax := flag.Int("dmax", 3, "group diameter bound Dmax")
	rounds := flag.Int("rounds", 60, "rounds to simulate")
	seed := flag.Int64("seed", 1, "random seed")
	loss := flag.Float64("loss", 0, "i.i.d. message loss probability")
	watch := flag.Bool("watch", false, "print groups every round (default: only on change)")
	workers := flag.Int("workers", 1, "engine worker fan-out (same trace at any width)")
	stats := flag.String("stats", "", "stream per-round stat records to this file (.csv: CSV, else JSONL)")
	introspectAddr := flag.String("introspect", "", "serve net/http/pprof and the flight-recorder registry JSON on this address while the run lasts")
	flag.Parse()

	p := engine.Params{Cfg: core.Config{Dmax: *dmax}, Seed: *seed, Workers: *workers}
	if *loss > 0 {
		p.Channel = radio.Lossy{P: *loss}
	}

	s, err := build(p, *topo, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grpsim:", err)
		os.Exit(2)
	}
	if *introspectAddr != "" {
		srv, err := introspect.Serve(*introspectAddr, s.Introspect())
		if err != nil {
			fmt.Fprintln(os.Stderr, "grpsim:", err)
			os.Exit(2)
		}
		defer srv.Close()
	}

	// The round loop is obs.Driver.Run: the partition, the predicates and
	// the optional stat stream all come from the incremental tracker, and
	// the stream is checked against the tracker's cumulative counters.
	tr := obs.NewGroupTracker(s)
	cfg := obs.SoakConfig{MaxRounds: *rounds, ProgressEvery: 1}
	if *stats != "" {
		if cfg.Sink, err = obs.OpenSink(*stats, 0); err != nil {
			fmt.Fprintln(os.Stderr, "grpsim:", err)
			os.Exit(2)
		}
	}
	last := ""
	cfg.Progress = func(r int, st obs.RoundStats) {
		cur := fmt.Sprintf("%v", tr.Groups())
		if *watch || cur != last {
			conv := ""
			if st.Converged {
				conv = "  [ΠA∧ΠS∧ΠM]"
			}
			fmt.Printf("round %3d: %s%s\n", r, cur, conv)
			last = cur
		}
	}
	d := &obs.Driver{
		Engine:  s,
		Tracker: tr,
		Step:    func(int, *obs.SoakResult) error { s.StepRound(); return nil },
		Close:   func(*obs.SoakResult) error { return nil },
	}
	res, err := d.Run(&cfg, time.Now())
	if err == nil && cfg.Sink != nil {
		err = cfg.Sink.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "grpsim:", err)
		os.Exit(1)
	}
	st := res.Final
	fmt.Printf("\nfinal: groups=%d singletons=%d mean_size=%.2f converged=%v\n",
		st.Groups, st.Singletons, st.MeanSize, st.Converged)
	reg := s.Introspect()
	fmt.Printf("traffic: %d msgs, %d bytes, %d deliveries\n", reg.Get(introspect.CtrMessagesSent),
		reg.Get(introspect.CtrBytesSent), reg.Get(introspect.CtrDeliveries))
}

func build(p engine.Params, topo string, n int, seed int64) (*engine.Engine, error) {
	switch topo {
	case "line":
		return engine.NewStatic(p, graph.Line(n)), nil
	case "ring":
		return engine.NewStatic(p, graph.Ring(n)), nil
	case "grid":
		side := int(math.Sqrt(float64(n)))
		if side < 1 {
			side = 1
		}
		return engine.NewStatic(p, graph.Grid(side, (n+side-1)/side)), nil
	case "star":
		return engine.NewStatic(p, graph.Star(n)), nil
	case "clique":
		return engine.NewStatic(p, graph.Complete(n)), nil
	case "clusters":
		k := n / 4
		if k < 2 {
			k = 2
		}
		return engine.NewStatic(p, graph.Clusters(k, 4, 0, false)), nil
	case "rgg":
		g := graph.ConnectedRandomGeometric(n, 12, 3, rand.New(rand.NewSource(seed)), 300)
		if g == nil {
			return nil, fmt.Errorf("no connected rgg instance for n=%d seed=%d", n, seed)
		}
		return engine.NewStatic(p, g), nil
	case "highway":
		w := space.NewWorld(8)
		m := &mobility.Highway{Length: 80, Lanes: 2, LaneGap: 2, SpeedMin: 10, SpeedMax: 14}
		return engine.New(p, engine.NewSpatialTopology(w, m, 0.05, ids(n), rand.New(rand.NewSource(seed)))), nil
	case "waypoint":
		w := space.NewWorld(6)
		// Constant density: the square grows with n, preserving the
		// sparse regime of the old fixed side=25 world at its default
		// n=8 (mean symmetric degree ≈ 1.5).
		side := math.Max(25, 8.8*math.Sqrt(float64(n)))
		m := &mobility.Waypoint{Side: side, SpeedMin: 0.5, SpeedMax: 1.5, Pause: 2}
		return engine.New(p, engine.NewSpatialTopology(w, m, 0.2, ids(n), rand.New(rand.NewSource(seed)))), nil
	case "urban":
		// A Manhattan-style block grid: north-south and east-west walls
		// with street gaps, over random-waypoint traffic — the workload
		// that exercises the wall-to-cell index.
		w := space.NewWorld(6)
		side := math.Max(30, 8.8*math.Sqrt(float64(n)))
		const block = 12.0
		for x := block; x < side; x += block {
			for y := 0.0; y < side; y += block {
				w.Walls = append(w.Walls,
					space.Segment{A: space.Point{X: x, Y: y + 2}, B: space.Point{X: x, Y: y + block - 2}},
					space.Segment{A: space.Point{X: y + 2, Y: x}, B: space.Point{X: y + block - 2, Y: x}})
			}
		}
		m := &mobility.Waypoint{Side: side, SpeedMin: 0.5, SpeedMax: 1.5, Pause: 1}
		return engine.New(p, engine.NewSpatialTopology(w, m, 0.2, ids(n), rand.New(rand.NewSource(seed)))), nil
	case "convoy":
		w := space.NewWorld(4)
		m := &mobility.Convoy{Spacing: 3, Speed: 8}
		return engine.New(p, engine.NewSpatialTopology(w, m, 0.1, ids(n), rand.New(rand.NewSource(seed)))), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

func ids(n int) []ident.NodeID {
	out := make([]ident.NodeID, n)
	for i := range out {
		out[i] = ident.NodeID(i + 1)
	}
	return out
}
