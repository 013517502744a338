package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/obs"
)

// expectation pins everything deterministic about one (workload, seed)
// run at the pinned population and run_seconds: the program may get
// faster, but a change to any of these has changed the protocol, not the
// simulator.
type expectation struct {
	Rounds       int    `json:"rounds"`
	StreamSHA256 string `json:"stream_sha256"`
	// The traced invocation runs only the first HalfRounds rounds (twice:
	// untraced and traced); its stream is this prefix of the full one.
	HalfRounds  int               `json:"half_rounds"`
	HalfSHA256  string            `json:"half_sha256"`
	Fingerprint string            `json:"fingerprint"`
	Final       obs.RoundStats    `json:"final"`
	Counters    map[string]uint64 `json:"counters"`
}

// expectedFile maps workload → seed → expectation.
type expectedFile map[string]map[string]expectation

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return f, nil
}

func halfRounds(w *workload, seconds float64) int {
	return w.warmup + max(2, w.timedRounds(seconds)/2)
}

func expectationOf(w *workload, run *soakRun) expectation {
	half := halfRounds(w, runSeconds)
	return expectation{
		Rounds:       run.rounds,
		StreamSHA256: sha256Hex(run.stream),
		HalfRounds:   half,
		HalfSHA256:   sha256Hex(streamPrefix(run.stream, half)),
		Fingerprint:  fmt.Sprintf("%016x", run.res.Fingerprint),
		Final:        run.res.Final,
		Counters:     run.res.Flight.Counters,
	}
}

// verifyPinned compares a completed run at the pinned population with
// expected.json. Seeds the file does not hold are checked by verifyRun and
// crossCheck only.
func verifyPinned(w *workload, seed int64, run *soakRun) []string {
	file, err := loadExpected()
	if err != nil {
		return []string{err.Error()}
	}
	exp, ok := file[w.name][strconv.FormatInt(seed, 10)]
	if !ok {
		fmt.Printf("# %s seed %d is not pinned in expected.json: generic and cross-mode checks only\n", w.name, seed)
		return nil
	}
	var failed []string
	switch run.rounds {
	case exp.Rounds:
		got := expectationOf(w, run)
		if got.StreamSHA256 != exp.StreamSHA256 {
			failed = append(failed, fmt.Sprintf("pinned: stream sha256 %s, want %s", got.StreamSHA256, exp.StreamSHA256))
		}
		if got.Fingerprint != exp.Fingerprint {
			failed = append(failed, fmt.Sprintf("pinned: fingerprint %s, want %s", got.Fingerprint, exp.Fingerprint))
		}
		if got.Final != exp.Final {
			failed = append(failed, fmt.Sprintf("pinned: final stats %+v, want %+v", got.Final, exp.Final))
		}
		for name, want := range exp.Counters {
			if g := got.Counters[name]; g != want {
				failed = append(failed, fmt.Sprintf("pinned: counter %s = %d, want %d", name, g, want))
			}
		}
	case exp.HalfRounds:
		if got := sha256Hex(run.stream); got != exp.HalfSHA256 {
			failed = append(failed, fmt.Sprintf("pinned: %d-round stream sha256 %s, want %s", run.rounds, got, exp.HalfSHA256))
		}
	default:
		fmt.Printf("# %s seed %d is pinned at %d rounds, this run has %d: generic and cross-mode checks only\n",
			w.name, seed, exp.Rounds, run.rounds)
	}
	return failed
}

// shardTwin names the single-process workload a sharded one must
// reproduce bit for bit.
var shardTwin = map[string]string{"parked-2shard": "parked-commuter"}

// checkTwins requires, for every pinned seed, that a sharded workload's
// stream and fingerprint equal its single-process twin's.
func checkTwins(f expectedFile) error {
	for sharded, single := range shardTwin {
		for seed, a := range f[sharded] {
			b, ok := f[single][seed]
			if !ok {
				return fmt.Errorf("expected.json: %s seed %s has no %s twin", sharded, seed, single)
			}
			if a.StreamSHA256 != b.StreamSHA256 || a.Fingerprint != b.Fingerprint || a.Final != b.Final {
				return fmt.Errorf("expected.json: %s seed %s differs from %s (stream %s vs %s, fingerprint %s vs %s)",
					sharded, seed, single, a.StreamSHA256, b.StreamSHA256, a.Fingerprint, b.Fingerprint)
			}
		}
	}
	return nil
}

// updateExpected regenerates path for the given seeds at the pinned
// population and run_seconds.
func updateExpected(path string, seeds []int64, outDir string) error {
	file := expectedFile{}
	for i := range workloads {
		w := &workloads[i]
		file[w.name] = map[string]expectation{}
		for _, seed := range seeds {
			cfg := w.soak(seed, 0, w.warmup+w.timedRounds(runSeconds))
			run := runSoak(cfg, w.shards, w.warmup, filepath.Join(outDir, w.name+"-stream.jsonl"))
			if failed := verifyRun(cfg, &run); len(failed) > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, failed)
			}
			file[w.name][strconv.FormatInt(seed, 10)] = expectationOf(w, &run)
			fmt.Printf("%s seed %d: %d rounds, stream %s, fingerprint %016x\n",
				w.name, seed, run.rounds, sha256Hex(run.stream)[:16], run.res.Fingerprint)
		}
	}
	if err := checkTwins(file); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
