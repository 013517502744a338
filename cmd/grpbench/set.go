package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one run; BENCHMARK.json's driver allows the same.
const childTimeout = 180 * time.Second

// manifest says where a result set came from, so a number can be traced
// to commit, host, input and seed.
type manifest struct {
	Time         string                  `json:"time"`
	Commit       string                  `json:"commit"`
	Dirty        bool                    `json:"dirty"`
	GoVersion    string                  `json:"go_version"`
	GOMAXPROCS   int                     `json:"gomaxprocs"`
	NProc        int                     `json:"nproc"`
	Kernel       string                  `json:"kernel"`
	LoadavgStart float64                 `json:"loadavg_start"`
	LoadavgEnd   float64                 `json:"loadavg_end"`
	NoisyHost    bool                    `json:"noisy_host"`
	Seeds        []int64                 `json:"seeds"`
	Repeats      int                     `json:"repeats"`
	Seconds      float64                 `json:"seconds"`
	Workloads    map[string]configRecord `json:"workloads"`
}

func newManifest(seeds []int64, seconds float64) manifest {
	m := manifest{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     "unknown",
		Seeds:      seeds, Repeats: len(seeds), Seconds: seconds,
		LoadavgStart: loadAvg(),
		Workloads:    map[string]configRecord{},
	}
	// Outside a git checkout (the acceptance driver's copy is none) the
	// commit stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	m.NoisyHost = m.LoadavgStart > 1.0
	for i := range workloads {
		m.Workloads[workloads[i].name] = workloads[i].configRecord(seconds)
	}
	return m
}

// runRecord is one child process of a set.
type runRecord struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    int      `json:"trace"`
	WallS    float64  `json:"wall_s"`
	Failed   []string `json:"failed_checks,omitempty"`
	Result   result   `json:"result"`
	// Host holds the hostTime metrics of an untraced run (a traced run
	// carries them in Result.Metrics, as per-layer metrics).
	Host map[string]metricValue `json:"host_time,omitempty"`
}

// summary condenses one end-to-end metric on one workload over the
// repeats of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// resultSet is the file a full set writes and -compare reads.
type resultSet struct {
	Manifest manifest                          `json:"manifest"`
	EndToEnd map[string]map[string]summary     `json:"end_to_end"` // workload → metric (hostTime ones too)
	PerLayer map[string]map[string]metricValue `json:"per_layer"`  // workload → metric, from the traced run
	Runs     []runRecord                       `json:"runs"`
}

// runChild runs one (workload, seed, trace) in a process of its own, so
// peak RSS, GC state and set-up time are per run.
func runChild(exe string, w *workload, seed int64, seconds float64, trace int, outDir string) runRecord {
	rec := runRecord{Workload: w.name, Seed: seed, Trace: trace}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	rec.WallS = time.Since(start).Seconds()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "FAILED ") {
			rec.Failed = append(rec.Failed, strings.TrimPrefix(l, "FAILED "))
		}
		if strings.HasPrefix(l, hostLinePrefix) {
			// A malformed line leaves Host empty: the set then has no
			// host-time rows for this run, which -compare reports.
			_ = json.Unmarshal([]byte(strings.TrimPrefix(l, hostLinePrefix)), &rec.Host)
		}
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); jerr != nil {
		// Crash or timeout: every round the run would have made is lost.
		rec.Failed = append(rec.Failed, fmt.Sprintf("child: %v (no result line)", err))
		rounds := w.warmup + w.timedRounds(seconds)
		rec.Result = result{Attempted: rounds, Failed: rounds}
	}
	return rec
}

// runSet is the default mode: every workload once per seed, workloads
// interleaved so host drift hits all alike, then one traced run per
// workload. Returns the exit status.
func runSet(seeds []int64, seconds float64, outDir, setPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(1, err.Error())
	}
	set := resultSet{
		Manifest: newManifest(seeds, seconds),
		EndToEnd: map[string]map[string]summary{},
		PerLayer: map[string]map[string]metricValue{},
	}
	if set.Manifest.NoisyHost {
		fmt.Fprintf(os.Stderr, "grpbench: WARNING: load average %.2f > 1.0 before the first run: host times will be noisy\n", set.Manifest.LoadavgStart)
	}
	for rep, seed := range seeds {
		for i := range workloads {
			rec := runChild(exe, &workloads[i], seed, seconds, 0, outDir)
			set.Runs = append(set.Runs, rec)
			fmt.Printf("run %d/%d %-16s seed %-3d %6.1f s  rounds/s %8.3f  failed %d/%d\n", rep+1, len(seeds), rec.Workload, seed,
				rec.WallS, rec.Host["driver.rounds_per_s"].Value, rec.Result.Failed, rec.Result.Attempted)
		}
	}
	for i := range workloads {
		rec := runChild(exe, &workloads[i], seeds[0], seconds, 1, outDir)
		set.Runs = append(set.Runs, rec)
		set.PerLayer[rec.Workload] = rec.Result.Metrics
		fmt.Printf("traced  %-16s seed %-3d %6.1f s  failed %d/%d\n", rec.Workload, seeds[0], rec.WallS, rec.Result.Failed, rec.Result.Attempted)
	}
	set.Manifest.LoadavgEnd = loadAvg()

	attempted, failed := 0, 0
	for _, rec := range set.Runs {
		attempted += rec.Result.Attempted
		failed += rec.Result.Failed
		for _, f := range rec.Failed {
			fmt.Printf("FAILED %s seed %d trace %d: %s\n", rec.Workload, rec.Seed, rec.Trace, f)
		}
	}
	for i := range workloads {
		name := workloads[i].name
		set.EndToEnd[name] = map[string]summary{}
		fmt.Printf("\n%s  (median [min .. max] over %d runs)\n", name, len(seeds))
		for _, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], hostTime...) {
			var vals []float64
			for _, rec := range set.Runs {
				if rec.Workload != name || rec.Trace != 0 {
					continue
				}
				if mv, ok := rec.Result.Metrics[m.name]; ok {
					vals = append(vals, mv.Value)
				} else if mv, ok := rec.Host[m.name]; ok {
					vals = append(vals, mv.Value)
				}
			}
			if len(vals) == 0 {
				continue // every run of this workload crashed
			}
			s := summarize(m.unit, vals)
			set.EndToEnd[name][m.name] = s
			fmt.Printf("  %-28s %14.6g [%.6g .. %.6g] %-6s spread %5.2f%% of bound %4.1f%%\n", m.name, s.Median, s.Min, s.Max, m.unit, 100*spread(vals), 100*m.bound)
		}
		for _, m := range perLayer {
			if mv, ok := set.PerLayer[name][m.name]; ok {
				fmt.Printf("  %-34s %14.6g %s\n", m.name, mv.Value, m.unit)
			}
		}
	}
	fmt.Printf("\nrounds_failed_share %g (%d of %d rounds)\n", ratio(float64(failed), float64(attempted)), failed, attempted)

	if setPath == "" {
		setPath = filepath.Join(outDir, fmt.Sprintf("set-%d.json", time.Now().Unix()))
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(setPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(1, err.Error())
	}
	fmt.Println("result set written to", setPath)
	if failed > 0 {
		return 1
	}
	return 0
}

func summarize(unit string, vals []float64) summary {
	q1, q2, q3 := quartiles(vals)
	lo, hi := minMax(vals)
	return summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, Min: lo, Max: hi, Values: vals}
}
