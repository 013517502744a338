package experiments

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// two seeds keep the unit tests quick; the benches and cmd/grpexp use
// the full Seeds count.
const testSeeds = 2

func TestE1StabilizationRecoversEverywhere(t *testing.T) {
	tb := E1Stabilization(testSeeds)
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[4] != "2/2" {
			t.Errorf("%s/%s did not recover on all seeds: %v", row[0], row[1], row)
		}
	}
}

func TestE2AgreementConvergesInSparseRegime(t *testing.T) {
	tb := E2Agreement(testSeeds)
	for _, row := range tb.Rows {
		if row[3] != "2/2" {
			t.Errorf("%s: converged %s", row[0], row[3])
		}
		if row[6] != "true" {
			t.Errorf("%s: safety violated", row[0])
		}
	}
}

func TestE4MergeGadgets(t *testing.T) {
	tb := E4MergeGadgets(testSeeds)
	for _, row := range tb.Rows {
		if row[1] != "2/2" {
			t.Errorf("%s: converged %s", row[0], row[1])
		}
	}
}

func TestE5NoFalseAccepts(t *testing.T) {
	tb := E5Compatibility()
	for _, row := range tb.Rows {
		if row[3] != "0" {
			t.Errorf("Dmax=%s: %s false accepts (safety!)", row[0], row[3])
		}
		// The test is allowed to be conservative but must not be vacuous.
		exact, _ := strconv.Atoi(row[2])
		cases, _ := strconv.Atoi(row[1])
		if exact*2 < cases {
			t.Errorf("Dmax=%s: only %d/%d exact decisions", row[0], exact, cases)
		}
	}
}

func TestE6NoUnexcusedViolations(t *testing.T) {
	tb := E6Continuity(testSeeds)
	for _, row := range tb.Rows {
		if row[5] != "0" {
			t.Errorf("%s: %s unexcused continuity violations (Prop. 14!)", row[0], row[5])
		}
	}
	// The static scenario must have zero raw violations in steady state.
	if tb.Rows[0][3] != "0" {
		t.Errorf("static scenario had steady-state violations: %v", tb.Rows[0])
	}
	// The cut scenarios must actually exercise ΠT breaks.
	if tb.Rows[1][2] == "0" {
		t.Errorf("drift-then-cut never broke ΠT: %v", tb.Rows[1])
	}
}

func TestE9LosslessBaseline(t *testing.T) {
	tb := E9Loss(testSeeds)
	// The loss=0 rows must converge on all seeds with no unexcused churn.
	for _, row := range tb.Rows[:2] {
		if row[2] != "2/2" || row[4] != "0" {
			t.Errorf("lossless baseline wrong: %v", row)
		}
	}
}

func TestE8LifetimeShape(t *testing.T) {
	tb := E8Lifetime(1)
	if len(tb.Rows) != 16 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The deployment trade-off must be visible: GRP keeps safety fresh on
	// a clear majority of rounds, while the epoch-based re-clusterer
	// (the deployable baseline) falls well below it.
	safety := map[string]float64{}
	for _, row := range tb.Rows {
		v, _ := strconv.ParseFloat(row[4], 64)
		safety[row[1]] += v
	}
	if safety["GRP"] <= safety["MaxMin-epoch10"] {
		t.Errorf("GRP safety freshness (%v) not better than epoch-based (%v)",
			safety["GRP"]/4, safety["MaxMin-epoch10"]/4)
	}
	if safety["GRP"]/4 < 70 {
		t.Errorf("GRP safety freshness too low: %v%%", safety["GRP"]/4)
	}
}

// TestE8BaselinesSeeGRPTopology pins E8's pairing: the baselines' trace,
// past the warm-up GRP runs, is the graph sequence GRP is measured on.
func TestE8BaselinesSeeGRPTopology(t *testing.T) {
	const n, dmax, steps = 12, 4, 20
	for _, spread := range []float64{0, 1.5} {
		snaps := highwayTrace(n, spread, highwayWarmup+steps, 1)[highwayWarmup:]
		for i, s := range replayGRP(n, dmax, spread, steps, 1) {
			if !s.G.Equal(snaps[i]) {
				t.Fatalf("spread %v: GRP's measured round %d is not the baselines' trace step %d", spread, i, i)
			}
		}
	}
}

func TestE14FullStabilizersConvergeBest(t *testing.T) {
	tb := E14Stabilizers(testSeeds)
	if tb.Rows[0][0] != "full" {
		t.Fatalf("unexpected row order: %v", tb.Rows)
	}
	fullConv := tb.Rows[0][1]
	if fullConv != "12/12" {
		t.Errorf("full stabilizers must converge everywhere: %v", fullConv)
	}
}

func TestE15BackoffRestoresFairChannel(t *testing.T) {
	tb := E15Collision(testSeeds)
	if tb.Rows[0][3] != "0/2" {
		t.Errorf("synchronized sends on the collision channel must starve: %v", tb.Rows[0])
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[3] != "2/2" {
		t.Errorf("wide randomized backoff must converge: %v", last)
	}
}

func TestE8bBothAlgosMeasured(t *testing.T) {
	tb := E8bHeadLoss(1)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != "6" {
			t.Errorf("%s: departures = %s, want 6", row[0], row[1])
		}
	}
}

func TestE11OverheadPositive(t *testing.T) {
	tb := E11Overhead()
	for _, row := range tb.Rows {
		bpm, _ := strconv.ParseFloat(row[5], 64)
		if bpm <= 16 {
			t.Errorf("%s: bytes/msg = %v implausibly small", row[0], bpm)
		}
	}
}

func TestE12QuarantineEnablesAgreement(t *testing.T) {
	tb := E12Quarantine(3)
	var on, off string
	var onUnexc string
	for _, row := range tb.Rows {
		if strings.HasSuffix(row[0], "-on") {
			on, onUnexc = row[1], row[3]
		} else {
			off = row[1]
		}
	}
	if on != "3/3" {
		t.Errorf("quarantine-on must converge on the double join: %v", on)
	}
	if onUnexc != "0" {
		t.Errorf("quarantine-on must have no unexcused violations: %v", onUnexc)
	}
	if off == "3/3" {
		t.Errorf("quarantine-off unexpectedly converged everywhere; ablation not discriminating")
	}
}

func TestE13DensityTrend(t *testing.T) {
	tb := E13Density(testSeeds)
	if len(tb.Rows) < 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[3] != "true" {
			t.Errorf("range %s: safety violated", row[0])
		}
	}
}

var update = flag.Bool("update", false, "regenerate the E-table golden")

// goldenPath is the checked-in E-table golden: every table of All(1) as
// TSV under a "== title ==" line.
const goldenPath = "testdata/tables_golden.tsv"

// TestAllProducesEveryTable runs the whole suite once at one seed and
// compares every protocol column with the golden, so a change that moves
// a paper result fails here. A deliberate protocol change re-pins the
// golden in its own diff:
//
//	go test ./internal/experiments -run TestAllProducesEveryTable -update
func TestAllProducesEveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tables := All(1)
	if len(tables) != 19 {
		t.Fatalf("tables = %d, want 19", len(tables))
	}
	var b strings.Builder
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("table %q is empty", tb.Title)
		}
		writeGolden(&b, tb)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(buf), "\n")
	title := ""
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if strings.HasPrefix(w, "== ") {
			title = w
		}
		if g != w {
			t.Fatalf("%s: line %d differs from %s:\n got %q\nwant %q\n"+
				"(a deliberate protocol change re-pins via `go test ./internal/experiments -run TestAllProducesEveryTable -update`)",
				title, i+1, goldenPath, g, w)
		}
	}
}

// writeGolden writes tb as TSV under its title.
func writeGolden(b *strings.Builder, tb *Table) {
	fmt.Fprintf(b, "== %s ==\n", tb.Title)
	for _, cells := range append([][]string{tb.Columns}, tb.Rows...) {
		b.WriteString(strings.Join(cells, "\t") + "\n")
	}
}

func TestE7cSpatialScaleShape(t *testing.T) {
	tb := E7cSpatialScale(1, 1000, 2000)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		safePct, _ := strconv.ParseFloat(row[4], 64)
		if safePct < 80 {
			t.Errorf("n=%s: only %v%% of groups ΠS-safe over the sampled tail", row[0], safePct)
		}
		deg, _ := strconv.ParseFloat(row[1], 64)
		if deg < 1 || deg > 8 {
			t.Errorf("n=%s: mean degree %v outside the constant-density band", row[0], deg)
		}
		grouped, _ := strconv.ParseFloat(row[3], 64)
		if grouped <= 5 {
			t.Errorf("n=%s: only %v%% of nodes grouped after the horizon", row[0], grouped)
		}
	}
}

func TestE13bDenseMetastabilityAtScale(t *testing.T) {
	tb := E13bDense(testSeeds)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[3] != "true" {
			t.Errorf("range %s: safety violated", row[0])
		}
	}
	// The sweep must actually reach the dense regime, and the E13
	// metastability trend must reproduce at 10× the population: denser
	// worlds fragment into more groups, never fewer nodes-per-group
	// violating safety.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	deg, _ := strconv.ParseFloat(last[1], 64)
	if deg < 15 {
		t.Errorf("densest sweep point only reaches mean degree %v", deg)
	}
	g0, _ := strconv.ParseFloat(first[4], 64)
	g1, _ := strconv.ParseFloat(last[4], 64)
	if g1 <= g0 {
		t.Errorf("fragmentation did not grow with density: %v → %v groups", g0, g1)
	}
}

func TestE7cDeltaScaleShape(t *testing.T) {
	tb := E7cDeltaScale(1, 2000)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	row := tb.Rows[0]
	deg, _ := strconv.ParseFloat(row[1], 64)
	if deg < 1 || deg > 8 {
		t.Errorf("mean degree %v outside the constant-density band", deg)
	}
}

func TestE16EveryEpisodeStabilizes(t *testing.T) {
	tb := E16Chaos(1)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Every intensity must re-stabilize: the Until gate stands the
	// channel adversity down for the tail, so an open episode there is a
	// protocol failure, not a fair-channel violation.
	for _, row := range tb.Rows {
		if row[2] == "0" {
			t.Errorf("intensity %v injected faults but closed no episodes: %v", row[0], row)
		}
		if row[3] != "0" {
			t.Errorf("intensity %v left episodes open — the world never re-stabilized: %v", row[0], row)
		}
	}
}
