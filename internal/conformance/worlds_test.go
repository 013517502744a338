package conformance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/obs"
)

// pinnedWorld is one of the benchmark's four worlds at reduced n: the
// same SoakConfig tune grpbench applies, copied here as a literal so that
// the protocol pin does not depend on the benchmark's source.
type pinnedWorld struct {
	name   string
	shards int // 0: obs.RunSoak; 2: dist.RunLoopback
	cfg    func() obs.SoakConfig
}

// worldBase is grpbench's shared base: Dmax 3, range 2.5, constant
// density, seed 1, two workers a process image.
func worldBase(n, rounds, workers int) obs.SoakConfig {
	return obs.SoakConfig{N: n, Dmax: 3, Range: 2.5, Seed: 1, Workers: workers, MaxRounds: rounds, Fingerprint: true}
}

func pinnedWorlds() []pinnedWorld {
	parked := func(workers int) func() obs.SoakConfig {
		return func() obs.SoakConfig {
			c := worldBase(3000, 40, workers)
			c.ActiveFraction = 0.02
			return c
		}
	}
	return []pinnedWorld{
		{name: "parked-commuter", cfg: parked(2)},
		{name: "rwp-allmoving", cfg: func() obs.SoakConfig { return worldBase(800, 40, 2) }},
		{name: "churn-chaos", cfg: func() obs.SoakConfig {
			c := worldBase(400, 120, 2)
			c.Urban = true
			c.ActiveFraction = 0.3
			c.JoinRate, c.LeaveRate = 0.2, 0.2
			prof, err := fault.Preset("mixed", 1)
			if err != nil {
				panic(err)
			}
			prof.Seed = c.Seed ^ 0x6368616f73 // grpsoak's derivation ("chaos")
			c.Fault = prof
			return c
		}},
		{name: "parked-2shard", shards: 2, cfg: parked(1)},
	}
}

// worldPin is what the golden keeps of a run: protocol keys only, no host
// time and no engine work counter.
type worldPin struct {
	World        string         `json:"world"`
	StreamSHA256 string         `json:"stream_sha256"`
	Fingerprint  string         `json:"fingerprint"`
	Final        obs.RoundStats `json:"final"`
}

func runPinnedWorld(t *testing.T, w pinnedWorld) worldPin {
	t.Helper()
	var stream bytes.Buffer
	cfg := w.cfg()
	sink := obs.NewJSONLSink(&stream, 0)
	cfg.Sink = sink
	var res *obs.SoakResult
	var err error
	if w.shards > 1 {
		res, err = dist.RunLoopback(dist.Config{Soak: cfg, Shards: w.shards})
	} else {
		res, err = obs.RunSoak(cfg)
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	sum := sha256.Sum256(stream.Bytes())
	return worldPin{World: w.name, StreamSHA256: hex.EncodeToString(sum[:]),
		Fingerprint: fmt.Sprintf("%016x", res.Fingerprint), Final: res.Final}
}

// TestGoldenPinnedWorlds is the tier-1 pin of the benchmark's four worlds:
// the parked commuter, the all-moving random waypoint, churn under chaos
// and the parked world over two loopback shards, each at reduced n. A
// one-bit change to any node's decision in any round moves the stream's
// hash or the fingerprint. The 2-shard run must equal the parked one.
// Regenerate deliberately with:
//
//	go test ./internal/conformance -run GoldenPinnedWorlds -update
func TestGoldenPinnedWorlds(t *testing.T) {
	var got []worldPin
	for _, w := range pinnedWorlds() {
		got = append(got, runPinnedWorld(t, w))
	}
	parked, sharded := got[0], got[len(got)-1]
	if parked.StreamSHA256 != sharded.StreamSHA256 || parked.Fingerprint != sharded.Fingerprint || parked.Final != sharded.Final {
		t.Fatalf("the 2-shard run diverged from the parked one:\n%+v\n%+v", sharded, parked)
	}
	path := filepath.Join("testdata", "golden_pinned_worlds.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []worldPin
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d worlds vs golden %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s diverged from the golden:\n got %+v\nwant %+v\n"+
				"(a deliberate protocol change must regenerate via `go test ./internal/conformance -run GoldenPinnedWorlds -update`)",
				want[i].World, got[i], want[i])
		}
	}
}

// TestPoolMissesAcrossWidths holds the broadcast pools to the worker
// count: the churn-chaos and parked-commuter tunes of TestGoldenPinnedWorlds
// must miss the message and the entry pools (registry msg_pool_misses,
// ents_pool_misses: the allocations the pools leave to the heap) equally
// often at 1, 2 and 4 workers. A pool is shared by a fixed group of shards
// that one participant runs in order, so its takes come in one order at
// any width; a pool owned by a participant would see them in the order
// the participants happened to claim the shards.
func TestPoolMissesAcrossWidths(t *testing.T) {
	for _, w := range pinnedWorlds() {
		if w.name != "churn-chaos" && w.name != "parked-commuter" {
			continue
		}
		var want [2]uint64
		for _, workers := range []int{1, 2, 4} {
			cfg := w.cfg()
			cfg.Workers = workers
			res, err := obs.RunSoak(cfg)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", w.name, workers, err)
			}
			got := [2]uint64{res.Flight.Counters["msg_pool_misses"], res.Flight.Counters["ents_pool_misses"]}
			switch {
			case got[0] == 0 || got[1] == 0:
				t.Fatalf("%s at %d workers: %v misses (messages, entries) — the pools are not exercised", w.name, workers, got)
			case workers == 1:
				want = got
			case got != want:
				t.Errorf("%s: %v misses (messages, entries) at %d workers, %v at one", w.name, got, workers, want)
			}
		}
	}
}
