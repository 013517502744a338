package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// Every topology build accepts yields a world of n nodes that steps. At
// n = 12 the grid is 3×4 and the clusters are three of four, so every
// world holds exactly n.
func TestBuildEveryTopology(t *testing.T) {
	const n = 12
	for _, topo := range []string{"line", "ring", "grid", "star", "clique", "clusters", "rgg",
		"highway", "waypoint", "urban", "convoy"} {
		s, err := build(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, topo, n, 1)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		s.StepRound()
		if got := s.Roster().Len(); got != n {
			t.Fatalf("%s: %d nodes, want %d", topo, got, n)
		}
	}
	if _, err := build(engine.Params{}, "moebius", n, 1); err == nil {
		t.Fatal("unknown topology built")
	}
	if code := run([]string{"-topo", "moebius"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("unknown topology exited %d, want 2", code)
	}
}

// -loss counts what it drops: the stat stream's radio_drops column ends
// above zero on a lossy run.
func TestLossStreamsRadioDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	args := []string{"-topo", "line", "-n", "8", "-loss", "0.2", "-rounds", "20", "-stats", path}
	if code := run(args, io.Discard, io.Discard); code != 0 {
		t.Fatalf("grpsim exited %d", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last struct {
		Round      int `json:"round"`
		RadioDrops int `json:"radio_drops"`
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Round != 20 || last.RadioDrops == 0 {
		t.Fatalf("last record: round %d, radio_drops %d; want round 20 with drops", last.Round, last.RadioDrops)
	}
}
