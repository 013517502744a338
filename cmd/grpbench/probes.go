package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The probes call leaf packages' public functions directly, on state the
// traced run left behind or on a pinned static world, so a change to one
// leaf shows in its own number before it shows anywhere else.

const probePasses = 5 // each timed probe reports the median pass

// probeValues fills the leaf-package metrics.
func probeValues(v map[string]float64, w *workload, seed int64, n int, run *tracedRun) {
	worldProbe(v, w.soak(seed, n, 1))
	ids, msgs := liveBroadcasts(run)
	foldProbe(v, run.graph, ids, msgs)
	wireProbe(v, ids, msgs)
	coreProbe(v)
}

// worldProbe replays the first 50 ticks of the workload's world the way
// every dist shard replicates it: mobility step, then symmetric graph.
func worldProbe(v map[string]float64, cfg obs.SoakConfig) {
	const ticks = 50
	w, mob, ids := obs.BuildSoakWorld(&cfg)
	w.Workers = cfg.Workers
	rng := rand.New(rand.NewSource(cfg.Seed))
	mob.Init(w, ids, rng)
	g := w.SymmetricGraph()
	var step, build []float64
	rows := 0
	for i := 0; i < ticks; i++ {
		t0 := time.Now()
		mob.Step(w, cfg.DT, rng)
		t1 := time.Now()
		next := w.SymmetricGraph()
		t2 := time.Now()
		step = append(step, us(t1.Sub(t0)))
		build = append(build, us(t2.Sub(t1)))
		if changed, ok := w.RowsChanged(g); ok {
			rows += len(changed)
		} else if next != g {
			rows += next.NumNodes() // full rebuild: every row is new
		}
		g = next
	}
	v["mobility.step_us_per_tick"] = median(step)
	v["space.graph_us_per_tick"] = median(build)
	v["graph.rows_changed_per_tick"] = float64(rows) / ticks
	v["graph.edges"] = float64(g.NumEdges())
}

// liveBroadcasts collects every live node (engine by engine, ascending
// within each) and its current broadcast from the engine that owns it.
func liveBroadcasts(run *tracedRun) ([]ident.NodeID, map[ident.NodeID]*core.Message) {
	var ids []ident.NodeID
	msgs := make(map[ident.NodeID]*core.Message)
	for _, e := range run.engines {
		for _, id := range e.Order() {
			ids = append(ids, id)
			if m, _, _, ok := e.BroadcastOf(id); ok {
				msgs[id] = m
			}
		}
	}
	return ids, msgs
}

// foldProbe times the antlist fold of core.Compute (Builder reset, one
// Ant per incoming list, View) over every node's graph neighbours'
// broadcast lists.
func foldProbe(v map[string]float64, g *graph.G, ids []ident.NodeID, msgs map[ident.NodeID]*core.Message) {
	type job struct {
		owner ident.NodeID
		lists []antlist.List
	}
	var jobs []job
	inputs := 0
	for _, id := range ids {
		j := job{owner: id}
		for _, u := range neighbors(g, id) {
			if m, ok := msgs[u]; ok {
				j.lists = append(j.lists, m.List)
			}
		}
		inputs += len(j.lists)
		jobs = append(jobs, j)
	}
	if inputs == 0 {
		return
	}
	var b antlist.Builder
	var passes []float64
	nodes := 0
	for p := 0; p < probePasses; p++ {
		t0 := time.Now()
		for i := range jobs {
			b.BeginRound(ident.Plain(jobs[i].owner))
			for _, l := range jobs[i].lists {
				b.Ant(l)
			}
			nodes += b.View().NodeCount()
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(inputs))
	}
	if nodes == 0 {
		panic("grpbench: fold probe folded nothing")
	}
	v["antlist.fold_ns_per_input"] = median(passes)
}

func neighbors(g *graph.G, v ident.NodeID) []ident.NodeID {
	if i := g.IndexOf(v); i >= 0 {
		return g.NeighborsAt(i)
	}
	return nil
}

// wireProbe encodes and decodes every live broadcast.
func wireProbe(v map[string]float64, ids []ident.NodeID, msgs map[ident.NodeID]*core.Message) {
	list := make([]*core.Message, 0, len(msgs))
	for _, id := range ids {
		if m, ok := msgs[id]; ok {
			list = append(list, m)
		}
	}
	if len(list) == 0 {
		return
	}
	count := float64(len(list))
	frames := make([][]byte, len(list))
	bytes := 0
	for i, m := range list {
		frames[i] = wire.Encode(*m)
		bytes += len(frames[i])
	}
	var enc, dec []float64
	var buf []byte
	for p := 0; p < probePasses; p++ {
		t0 := time.Now()
		for _, m := range list {
			buf = wire.AppendEncode(buf[:0], *m)
		}
		t1 := time.Now()
		for _, f := range frames {
			if _, err := wire.Decode(f); err != nil {
				panic("grpbench: wire probe: " + err.Error()) // the codec rejected its own frame
			}
		}
		t2 := time.Now()
		enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/count)
		dec = append(dec, float64(t2.Sub(t1).Nanoseconds())/count)
	}
	v["wire.encode_ns_per_msg"] = median(enc)
	v["wire.decode_ns_per_msg"] = median(dec)
	v["wire.bytes_per_msg"] = float64(bytes) / count
}

// coreProbe drives the protocol core sequentially — BuildMessage,
// ReceiveRef, ComputeIn, no engine — on a pinned static world (40
// cliques of 6 chained in a ring by 2-relay bridges) to convergence, then
// times 200 rounds. Independent of workload and seed by design: it is the
// same number on every workload unless internal/core changed.
func coreProbe(v map[string]float64) {
	const settle, rounds = 60, 200
	g := graph.Clusters(40, 6, 2, true)
	ids := g.Nodes()
	nodes := make([]*core.Node, len(ids))
	for i, id := range ids {
		nodes[i] = core.NewNode(id, core.Config{Dmax: 3})
	}
	index := make(map[ident.NodeID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	receivers := make([][]*core.Node, len(ids)) // resolved up front: the probe times ReceiveRef, not lookups
	for i, id := range ids {
		for _, u := range g.NeighborsView(id) {
			receivers[i] = append(receivers[i], nodes[index[u]])
		}
	}
	msgs := make([]core.Message, len(ids))
	var bld antlist.Builder
	var build, receive, compute time.Duration
	receives := 0
	var from runtime.MemStats
	for r := 0; r < settle+rounds; r++ {
		if r == settle {
			build, receive, compute, receives = 0, 0, 0, 0
			runtime.ReadMemStats(&from)
		}
		t0 := time.Now()
		for i, n := range nodes {
			msgs[i] = n.BuildMessage()
		}
		t1 := time.Now()
		for i := range msgs {
			for _, n := range receivers[i] {
				n.ReceiveRef(&msgs[i])
			}
			receives += len(receivers[i])
		}
		t2 := time.Now()
		for _, n := range nodes {
			n.ComputeIn(&bld)
		}
		t3 := time.Now()
		build += t1.Sub(t0)
		receive += t2.Sub(t1)
		compute += t3.Sub(t2)
	}
	var to runtime.MemStats
	runtime.ReadMemStats(&to)
	ops := float64(rounds * len(nodes))
	v["core.probe_build_ns"] = float64(build.Nanoseconds()) / ops
	v["core.probe_receive_ns"] = float64(receive.Nanoseconds()) / float64(receives)
	v["core.probe_compute_ns"] = float64(compute.Nanoseconds()) / ops
	v["core.probe_allocs_per_round"] = float64(to.Mallocs-from.Mallocs) / rounds
}
