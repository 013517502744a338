package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestCounterNamesComplete pins that every counter and every wake cause
// has a distinct stable name — the JSONL flight-record schema.
func TestCounterNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for id := CounterID(0); id < NumCounters; id++ {
		name := id.String()
		if name == "" || name == "counter(?)" {
			t.Fatalf("counter %d has no name", id)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	for c := WakeCause(0); c < NumWakeCauses; c++ {
		if c.String() == "cause(?)" {
			t.Fatalf("wake cause %d has no name", c)
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == "phase(?)" {
			t.Fatalf("phase %d has no name", p)
		}
	}
}

// TestWakeCauseCounterAlignment pins the contiguous-block contract
// WakeCause.Counter relies on: cause names and counter names must agree.
func TestWakeCauseCounterAlignment(t *testing.T) {
	for c := WakeCause(0); c < NumWakeCauses; c++ {
		want := "wakes_" + c.String()
		if got := c.Counter().String(); got != want {
			t.Fatalf("cause %v maps to counter %q, want %q", c, got, want)
		}
	}
	if CtrWakeQuietReplay != WakeQuietReplay.Counter() {
		t.Fatal("wake block is not contiguous")
	}
}

// TestFoldAcrossLanes checks that Get folds the coordinator cell and
// every shard lane, and that the fold is independent of which lane was
// written (the commutativity behind worker-count invariance).
func TestFoldAcrossLanes(t *testing.T) {
	a := NewRegistry(8)
	b := NewRegistry(8)
	// Same events, different lane placement.
	a.Inc(CtrDeliveries)
	a.Shard(3).Add(CtrDeliveries, 4)
	a.Shard(7).Inc(CtrDeliveries)
	b.Shard(0).Add(CtrDeliveries, 6)
	if ga, gb := a.Get(CtrDeliveries), b.Get(CtrDeliveries); ga != 6 || gb != 6 {
		t.Fatalf("fold mismatch: %d vs %d, want 6", ga, gb)
	}
	if a.Counters()["deliveries"] != 6 {
		t.Fatal("Counters() disagrees with Get()")
	}
}

// TestConcurrentLaneWrites exercises the atomic discipline under the race
// detector: one goroutine per lane plus a concurrent reader.
func TestConcurrentLaneWrites(t *testing.T) {
	r := NewRegistry(8)
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lane := r.Shard(s)
			for i := 0; i < 1000; i++ {
				lane.Inc(CtrComputesRun)
				lane.Add(CtrBytesSent, 3)
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Get(CtrComputesRun)
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Get(CtrComputesRun); got != 8000 {
		t.Fatalf("lost updates: %d, want 8000", got)
	}
	if got := r.Get(CtrBytesSent); got != 24000 {
		t.Fatalf("lost updates: %d, want 24000", got)
	}
}

// TestPhaseNsSeparation pins that wall-clock timings never leak into the
// deterministic counter section of a snapshot.
func TestPhaseNsSeparation(t *testing.T) {
	r := NewRegistry(4)
	r.AddPhaseNs(PhaseCompute, 1234)
	r.Busy(PhaseCompute).Add(2000)
	r.Inc(CtrTicks)
	snap := r.Snapshot()
	if snap.PhaseNs["compute"] != 1234 {
		t.Fatalf("phase_ns: %v", snap.PhaseNs)
	}
	if snap.BusyNs["compute"] != 2000 || len(snap.BusyNs) != len(FanOutPhases) {
		t.Fatalf("busy_ns: %v", snap.BusyNs)
	}
	for name := range snap.Counters {
		for p := Phase(0); p < NumPhases; p++ {
			if name == p.String() {
				t.Fatalf("phase name %q leaked into the counter section", name)
			}
		}
	}
	if len(snap.Counters) != int(NumCounters) {
		t.Fatalf("snapshot has %d counters, want %d", len(snap.Counters), NumCounters)
	}
}

// TestServe drives the HTTP surface end to end: registry JSON, the pprof
// index, and a nil-registry (profiling-only) mux.
func TestServe(t *testing.T) {
	reg := NewRegistry(4)
	reg.Inc(CtrTicks)
	reg.Shard(1).Add(CtrDeliveries, 7)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/debug/registry"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["ticks"] != 1 || snap.Counters["deliveries"] != 7 {
		t.Fatalf("registry endpoint: %v", snap.Counters)
	}
	if len(get("/debug/pprof/")) == 0 {
		t.Fatal("empty pprof index")
	}

	bare, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/registry", bare.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var empty Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Counters) != 0 {
		t.Fatalf("nil-registry endpoint served counters: %v", empty.Counters)
	}
}
