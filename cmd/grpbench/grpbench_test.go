package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestPercentileSampleRule pins the interpolation and the count of
// samples beyond the reported rank — the rule that decides which tail
// percentile a run may report.
func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.5, 100.5, 99},
		{0.90, 180.1, 19},
		{0.95, 190.05, 9}, // fewer than ten beyond: a 200-sample window may not report p95
	} {
		got, beyond := percentile(xs, tc.p)
		if math.Abs(got-tc.want) > 1e-9 || beyond != tc.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := percentile([]float64{7}, 0.9); v != 7 || beyond != 0 {
		t.Errorf("single sample: %v, %d", v, beyond)
	}
	// Python: statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4)
	// == [3.5, 24.0, 160.0].
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	if s := spread([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}); math.Abs(s-(160-3.5)/24) > 1e-12 {
		t.Errorf("spread = %v", s)
	}
}

// TestSelfTime checks self time = duration − covered child time on a
// hand-built tree: overlapping children count once, a child is clipped to
// its parent, grandchildren only reduce their own parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Round: 1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "tick", Round: 1, Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "observe", Round: 1, Start: 40, End: 70}, // overlaps tick by 10
		{ID: 3, Parent: 0, Name: "sink", Round: 1, Start: 90, End: 120},   // runs past the parent
		{ID: 4, Parent: 1, Name: "advance", Round: 1, Start: 10, End: 25},
		{ID: 5, Parent: 1, Name: "finish", Round: 1, Start: 30, End: 50},
	}
	want := []int64{100 - (40 + 20 + 10), 40 - (15 + 20), 30, 30, 15, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if tot := selfTotal(spans, 0, "round", "tick"); tot != 30+5 {
		t.Errorf("selfTotal = %d, want 35", tot)
	}
	if tot := selfTotal(spans, 1, "round", "tick"); tot != 0 {
		t.Errorf("selfTotal past the warm-up boundary = %d, want 0", tot)
	}
}

// TestBenchmarkContract keeps the tables inside BENCHMARK.json's limits
// and the committed file equal to what the tables generate.
func TestBenchmarkContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the contract", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads / %d end-to-end / %d per-layer metrics exceed 8 / 16 / 128", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
		if _, beyond := percentile(make([]float64, w.timedRounds(runSeconds)), tailPercentile); beyond < 10 {
			t.Errorf("workload %s: only %d of %d timed rounds lie beyond p%.0f", w.name, beyond, w.timedRounds(runSeconds), 100*tailPercentile)
		}
	}
	setup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check("metric", m.name)
		if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.name, m.unit, m.better)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.unit == "s" && m.better == "lower"
			for _, o := range endToEnd {
				if o.bound > m.bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.name, o.bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in seconds, lower is better")
	}
	committed, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the tables: regenerate with `go run ./cmd/grpbench -benchmark-json > BENCHMARK.json`")
	}
}

// TestExpectedTwins requires the committed expectations to hold the
// cross-workload identity (a sharded run reproduces its single-process
// twin) for both pinned seeds.
func TestExpectedTwins(t *testing.T) {
	f, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTwins(f); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []string{"1", "2"} {
			exp, ok := f[w.name][seed]
			if !ok {
				t.Errorf("%s seed %s is not pinned", w.name, seed)
			} else if want := w.warmup + w.timedRounds(runSeconds); exp.Rounds != want {
				t.Errorf("%s seed %s pinned at %d rounds, the tables say %d: run -update-expected", w.name, seed, exp.Rounds, want)
			}
		}
	}
}

// TestSmokeAllWorkloads runs every workload at n=150 for 12 rounds
// through both the real entry point and the traced loop: the traced
// fingerprint (and stream, where the loop has one) must equal the
// untraced run's, the generic and cross-mode checks must pass, and
// parked-2shard must reproduce parked-commuter.
func TestSmokeAllWorkloads(t *testing.T) {
	const n, warm, rounds = 150, 4, 12
	dir := t.TempDir()
	streams := map[string][]byte{}
	prints := map[string]uint64{}
	for i := range workloads {
		w := &workloads[i]
		cfg := w.soak(3, n, rounds)
		run := runSoak(cfg, w.shards, warm, dir+"/"+w.name+".jsonl")
		if failed := verifyRun(cfg, &run); len(failed) > 0 {
			t.Errorf("%s: %v", w.name, failed)
			continue
		}
		if len(run.timed.roundMs) != rounds-warm || run.setup <= 0 || run.warmup.wall <= 0 {
			t.Errorf("%s: %d timed samples, setup %v, warm-up %v", w.name, len(run.timed.roundMs), run.setup, run.warmup)
		}
		if _, failed := crossCheck(w, 3, n, &run, dir); len(failed) > 0 {
			t.Errorf("%s: %v", w.name, failed)
		}
		streams[w.name], prints[w.name] = run.stream, run.res.Fingerprint

		var traced *tracedRun
		var err error
		if w.shards > 1 {
			traced, err = tracedShards(w.soak(3, n, rounds), w.shards, warm)
		} else {
			traced, err = tracedSoak(w.soak(3, n, rounds), warm, dir+"/"+w.name+"-traced.jsonl")
		}
		if err != nil {
			t.Errorf("%s: traced: %v", w.name, err)
			continue
		}
		if traced.fingerprint != run.res.Fingerprint {
			t.Errorf("%s: traced fingerprint %016x, untraced %016x", w.name, traced.fingerprint, run.res.Fingerprint)
		}
		if traced.stream != nil && !bytes.Equal(traced.stream, run.stream) {
			t.Errorf("%s: traced stream differs from the untraced run's", w.name)
		}
		values := map[string]float64{}
		for _, m := range perLayer {
			values[m.name] = 0
		}
		layerValues(values, w, traced, &run, rounds-warm)
		probeValues(values, w, 3, n, traced)
		if len(values) != len(perLayer) {
			t.Errorf("%s: %d per-layer values for %d metrics", w.name, len(values), len(perLayer))
		}
		if values["engine.computes_run"] <= 0 || values["wire.bytes_per_msg"] <= 0 || values["core.probe_compute_ns"] <= 0 {
			t.Errorf("%s: empty per-layer metrics: %v", w.name, values)
		}
	}
	for sharded, single := range shardTwin {
		if !bytes.Equal(streams[sharded], streams[single]) || prints[sharded] != prints[single] || len(streams[sharded]) == 0 {
			t.Errorf("%s does not reproduce %s (fingerprints %016x vs %016x)", sharded, single, prints[sharded], prints[single])
		}
	}
}

// TestJudge pins the A/B verdict rule.
func TestJudge(t *testing.T) {
	lower := metric{name: "ms", better: "lower", bound: 0.10}
	higher := metric{name: "rate", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, tc := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"within the bound", lower, tight(100), tight(105), vSame},
		{"slower than the bound", lower, tight(100), tight(115), vWorse},
		{"faster than the bound", lower, tight(100), tight(80), vBetter},
		{"rate fell", higher, tight(100), tight(85), vWorse},
		{"rate rose", higher, tight(100), tight(120), vBetter},
		{"noise hides a small change", lower, wide(100), wide(104), vUnresolved},
		{"noise cannot hide a regression", lower, wide(100), wide(140), vWorse},
		{"every run beats every run", lower, wide(100), tight(50), vBetter},
	} {
		if got, _, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestResultLineShape checks the last line an invocation prints: exactly
// the contract's keys, every metric of the list with its unit.
func TestResultLineShape(t *testing.T) {
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.name] = 1.5
	}
	r := report(endToEnd, values, 10, nil)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(back) != 4 || len(r.Metrics) != len(endToEnd) || !r.Correct {
		t.Errorf("result line %s", b)
	}
}
