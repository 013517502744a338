// Command grpbench is the repository's benchmark: four pinned worlds run
// through the soak path a grpsoak user runs (obs.RunSoak /
// dist.RunLoopback with the tracker and a JSONL sink attached), measured
// end to end, and once more under the benchmark's own spans to give
// per-layer numbers. README.md in this directory says why each workload
// and metric exists; BENCHMARK.json at the repository root is the
// contract the numbers are judged by.
//
// One run (what BENCHMARK.json's command invokes):
//
//	go run ./cmd/grpbench -workload parked-commuter -seed 1 -seconds 6 -trace 0
//
// prints every metric by name with its unit, checks the run's outputs,
// and ends with one JSON result line. -trace 1 prints the per-layer
// metrics instead and writes trace-<workload>.jsonl under -out.
//
// A full set (every workload × -repeats, interleaved, one child process
// per run, then one traced run per workload) and the A/B tool:
//
//	go run ./cmd/grpbench -seed 1 -repeats 3 -o set.json
//	go run ./cmd/grpbench -compare A.json B.json
//
// Maintenance: -update-expected regenerates expected.json for -seeds;
// -benchmark-json prints BENCHMARK.json as the program's tables define it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	name := flag.String("workload", "", "run this one workload and print its result line (default: a full set of all workloads)")
	seed := flag.Int64("seed", 1, "workload seed: the worlds, their motion, churn and faults derive from it")
	seconds := flag.Float64("seconds", runSeconds, "size the timed window for this many seconds on the reference host")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from the untraced run; 1: per-layer metrics from the traced run")
	outDir := flag.String("out", ".grpbench", "directory for stats streams and trace files")
	repeats := flag.Int("repeats", 3, "full set: runs per workload, all at -seed")
	seedList := flag.String("seeds", "", "full set: one run per workload per listed seed (overrides -seed/-repeats); -update-expected: seeds to pin")
	setPath := flag.String("o", "", "full set: write the result set here (default <out>/set-<unix time>.json)")
	compare := flag.Bool("compare", false, "compare two result sets: grpbench -compare A.json B.json")
	update := flag.Bool("update-expected", false, "regenerate cmd/grpbench/expected.json for -seeds (default 1,2)")
	printBench := flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric and workload tables define it")
	flag.Parse()

	// Pinned before anything runs: the reference host has two cores, and
	// before Go 1.25 GOMAXPROCS ignores a container's CPU quota.
	runtime.GOMAXPROCS(maxProcs)

	switch {
	case *printBench:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: grpbench -compare A.json B.json")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	case *update:
		seeds, err := parseSeeds(*seedList, []int64{1, 2})
		if err != nil {
			fatal(2, err.Error())
		}
		mustMkdir(*outDir)
		if err := updateExpected("cmd/grpbench/expected.json", seeds, *outDir); err != nil {
			fatal(1, err.Error())
		}
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(2, fmt.Sprintf("unknown workload %q", *name))
		}
		if *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fatal(2, "-seconds must be positive and -trace 0 or 1")
		}
		mustMkdir(*outDir)
		var r result
		if *trace == 1 {
			r = measurePerLayer(w, *seed, *seconds, *outDir)
		} else {
			r = measureEndToEnd(w, *seed, *seconds, *outDir)
		}
		if !r.Correct {
			os.Exit(1)
		}
	default:
		same := make([]int64, max(1, *repeats))
		for i := range same {
			same[i] = *seed
		}
		seeds, err := parseSeeds(*seedList, same)
		if err != nil {
			fatal(2, err.Error())
		}
		mustMkdir(*outDir)
		os.Exit(runSet(seeds, *seconds, *outDir, *setPath))
	}
}

func parseSeeds(list string, def []int64) ([]int64, error) {
	if list == "" {
		return def, nil
	}
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

func mustMkdir(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(1, err.Error())
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "grpbench:", msg)
	os.Exit(code)
}
