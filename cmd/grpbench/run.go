package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// hostMark is the process-wide host state read at a window boundary.
type hostMark struct {
	cpu        time.Duration // user+sys
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	gcCycles   uint32
}

func readHostMark() hostMark {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		gcCycles:   ms.NumGC,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// window is the host-side measurement of a stretch of one run.
type window struct {
	rounds  int
	wall    time.Duration // Σ round times; reading the marks between rounds is not in it
	roundMs []float64
	from    hostMark
	to      hostMark
}

func (w *window) roundsPerS() float64 { return float64(w.rounds) / w.wall.Seconds() }

// soakRun is one call of the soak entry point and everything it produced.
type soakRun struct {
	rounds int
	setup  time.Duration // entry → first Progress call
	warmup window        // first Progress call → end of last warm-up round
	timed  window
	res    *obs.SoakResult
	stream []byte // the JSONL stats stream, as the sink wrote it
	err    error
}

// runSoak drives cfg through the real entry point — obs.RunSoak, or
// dist.RunLoopback when shards > 1 — with a JSONL file sink on every
// round. Host time is read only in the Progress callback, so the loop
// under test is exactly the one a grpsoak user runs; a round is timed
// from the callback's return to its next entry.
func runSoak(cfg obs.SoakConfig, shards, warm int, streamPath string) soakRun {
	run := soakRun{rounds: cfg.MaxRounds}
	sink, err := obs.CreateJSONLSink(streamPath, 0)
	if err != nil {
		run.err = err
		return run
	}
	cfg.Sink = sink

	calls := 0
	var begin time.Time
	cfg.ProgressEvery = 1
	cfg.Progress = func(r int, _ obs.RoundStats) {
		end := time.Now()
		calls++
		win := &run.timed
		if r <= warm {
			win = &run.warmup
		}
		if r == 1 {
			run.setup = end.Sub(begin)
			run.warmup.from = readHostMark()
		} else {
			d := end.Sub(begin)
			win.rounds++
			win.wall += d
			win.roundMs = append(win.roundMs, ms(d))
		}
		switch r {
		case warm:
			run.warmup.to = readHostMark()
			run.timed.from = run.warmup.to
		case cfg.MaxRounds:
			run.timed.to = readHostMark()
		}
		begin = time.Now()
	}

	begin = time.Now()
	if shards > 1 {
		run.res, run.err = dist.RunLoopback(dist.Config{Soak: cfg, Shards: shards})
	} else {
		run.res, run.err = obs.RunSoak(cfg)
	}
	if cerr := sink.Close(); run.err == nil {
		run.err = cerr
	}
	if run.err != nil {
		return run
	}
	if run.stream, run.err = os.ReadFile(streamPath); run.err != nil {
		return run
	}
	if calls != cfg.MaxRounds {
		run.err = fmt.Errorf("%d progress calls for %d rounds", calls, cfg.MaxRounds)
	}
	return run
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// streamPrefix returns the first n records of a JSONL stream (nil when
// it holds fewer).
func streamPrefix(stream []byte, n int) []byte {
	end := 0
	for i := 0; i < n; i++ {
		j := bytes.IndexByte(stream[end:], '\n')
		if j < 0 {
			return nil
		}
		end += j + 1
	}
	return stream[:end]
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// verifyRun applies the checks that hold for any seed and returns one
// line per failed check. Pinned expectations and the cross-mode check
// come on top (expected.go, crossCheck).
func verifyRun(cfg obs.SoakConfig, run *soakRun) []string {
	if run.err != nil {
		return []string{"run: " + run.err.Error()}
	}
	var failed []string
	res := run.res
	if got := bytes.Count(run.stream, []byte{'\n'}); got != run.rounds || res.Rounds != run.rounds {
		failed = append(failed, fmt.Sprintf("stream: %d records, result %d rounds, want %d", got, res.Rounds, run.rounds))
	} else {
		var last obs.RoundStats
		tail := run.stream[len(streamPrefix(run.stream, run.rounds-1)):]
		if err := json.Unmarshal(tail, &last); err != nil || last != res.Final {
			failed = append(failed, fmt.Sprintf("stream: last record %s does not decode to the result's final stats (%v)", bytes.TrimSpace(tail), err))
		}
	}
	if want := cfg.N + res.Joined - res.Left; res.Final.Nodes != want {
		failed = append(failed, fmt.Sprintf("population: %d nodes in the final record, want %d", res.Final.Nodes, want))
	}
	if res.MeanSafetyRate <= 0 || res.MeanSafetyRate > 1 {
		failed = append(failed, fmt.Sprintf("safety: mean rate %v outside (0,1]", res.MeanSafetyRate))
	}
	return failed
}

// crossCheck reruns the head of the run in the other execution mode and
// requires a byte-identical stream: the sharded workload against the
// single-process engine, single-process workloads against the inline
// (one worker) phase path. It is what makes an unpinned seed checkable.
func crossCheck(w *workload, seed int64, n int, main *soakRun, outDir string) (rounds int, failed []string) {
	rounds = min(w.refRounds, main.rounds)
	cfg := w.soak(seed, n, rounds)
	mode := "1 worker"
	if w.shards > 1 {
		cfg.Workers = maxProcs
		mode = "single process"
	} else {
		cfg.Workers = 1
	}
	ref := runSoak(cfg, 0, 0, filepath.Join(outDir, w.name+"-ref.jsonl"))
	if ref.err != nil {
		return rounds, []string{"reference run: " + ref.err.Error()}
	}
	if main.err == nil && !bytes.Equal(ref.stream, streamPrefix(main.stream, rounds)) {
		failed = append(failed, fmt.Sprintf("cross-mode: first %d records differ from the %s run", rounds, mode))
	}
	return rounds, failed
}

// result is the last line of an invocation's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics prints every metric of specs by name with its unit and
// returns them in the result line's shape.
func printMetrics(specs []metric, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			panic("grpbench: metric " + m.name + " not measured")
		}
		out[m.name] = metricValue{v, m.unit}
		fmt.Printf("%-34s %16.6g %s\n", m.name, v, m.unit)
	}
	return out
}

// report prints the metrics, the failed checks, and the result line. A
// failed check voids the whole invocation: its outputs are suspect, so
// every attempted round counts as failed.
func report(specs []metric, values map[string]float64, attempted int, failed []string) result {
	r := result{Correct: len(failed) == 0, Attempted: attempted, Metrics: printMetrics(specs, values)}
	if !r.Correct {
		r.Failed = attempted
	}
	for _, f := range failed {
		fmt.Println("FAILED", f)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a NaN metric: a bug in this file
	}
	fmt.Println(string(line))
	return r
}

// setupRepeats is how many set-ups one invocation times for the setup_s
// median: the measured run's own and setupRepeats-1 one-round runs.
const setupRepeats = 5

// measureEndToEnd is one `-trace 0` invocation: the measured run first
// (a fresh process, like a user's), then the extra set-ups, then the
// cross-mode reference.
func measureEndToEnd(w *workload, seed int64, seconds float64, outDir string) result {
	timed := w.timedRounds(seconds)
	total := w.warmup + timed
	cfg := w.soak(seed, 0, total)
	main := runSoak(cfg, w.shards, w.warmup, filepath.Join(outDir, w.name+"-stream.jsonl"))
	rss := peakRSSMB()
	failed := verifyRun(cfg, &main)
	attempted := total
	if main.err == nil {
		failed = append(failed, verifyPinned(w, seed, &main)...)
	}

	setups := []float64{main.setup.Seconds()}
	first := streamPrefix(main.stream, 1)
	for i := 0; i < setupRepeats-1; i++ {
		runtime.GC()
		probe := runSoak(w.soak(seed, 0, 1), w.shards, 0, filepath.Join(outDir, w.name+"-setup.jsonl"))
		attempted++
		switch {
		case probe.err != nil:
			failed = append(failed, "set-up run: "+probe.err.Error())
		case main.err == nil && !bytes.Equal(probe.stream, first):
			failed = append(failed, "determinism: a repeated set-up produced a different first record")
		}
		setups = append(setups, probe.setup.Seconds())
	}
	runtime.GC()
	refRounds, refFailed := crossCheck(w, seed, 0, &main, outDir)
	attempted += refRounds
	failed = append(failed, refFailed...)

	values := map[string]float64{}
	if main.err == nil {
		t := &main.timed
		rounds := float64(t.rounds)
		fmt.Printf("# %s seed %d: %d warm-up + %d timed rounds, stream %s, fingerprint %016x, set-ups %.4g s\n",
			w.name, seed, w.warmup, t.rounds, sha256Hex(main.stream)[:16], main.res.Fingerprint, setups)
		values["allocs_per_round"] = float64(t.to.mallocs-t.from.mallocs) / rounds
		values["alloc_kb_per_round"] = float64(t.to.allocBytes-t.from.allocBytes) / 1024 / rounds
		values["peak_rss_mb"] = rss
		values["setup_s"] = median(setups)
		values["air_bytes_per_node_round"] = float64(main.res.Flight.Counters["bytes_sent"]) /
			(float64(main.res.Final.Nodes) * float64(main.res.Rounds))
		values["safety_rate_mean"] = main.res.MeanSafetyRate

		// Host time is not part of the result line (see hostTime); a full
		// set reads it from this line instead.
		host := map[string]float64{}
		hostTimeValues(host, &main)
		if b, err := json.Marshal(printMetrics(hostTime, host)); err == nil {
			fmt.Printf("%s%s\n", hostLinePrefix, b)
		}
	} else {
		// A run that did not complete has no measurements; the metrics are
		// still named so the result line keeps its shape.
		for _, m := range endToEnd {
			values[m.name] = -1
		}
	}
	return report(endToEnd, values, attempted, failed)
}

// hostLinePrefix marks the line of an untraced run's output that carries
// the hostTime metrics as JSON.
const hostLinePrefix = "#host "

// hostTimeValues fills the hostTime metrics from an untraced run.
func hostTimeValues(v map[string]float64, run *soakRun) {
	t := &run.timed
	v["driver.rounds_per_s"] = t.roundsPerS()
	v["driver.round_ms_p50"] = median(t.roundMs)
	v["driver.round_ms_p80"], _ = percentile(t.roundMs, tailPercentile)
	v["driver.cpu_ms_per_round"] = ms(t.to.cpu-t.from.cpu) / float64(t.rounds)
	v["driver.warmup_s"] = run.warmup.wall.Seconds()
}
