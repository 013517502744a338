package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
)

// E16Chaos regenerates the fault-tolerance study the paper argues but
// never measures: self-stabilization as a recovery-latency distribution.
// A static world (mobility frozen, so every disturbance is
// fault-driven) runs under the mixed chaos profile — crash-recover with
// corrupted reloads, Byzantine liars, Gilbert–Elliott burst loss — at
// increasing intensity; the convergence monitor times each episode from
// its last fault to durable re-quiescence. Injection — channel
// adversity included — stands down at three-fifths of the run
// (Profile.Until) so the last episode has room to close under the fair
// channel the paper's claim assumes: a bounded max and zero open
// episodes at every intensity is the self-stabilization property, made
// quantitative.
func E16Chaos(seeds int) *Table {
	tb := newTable("E16 — stabilization time vs fault intensity (mixed chaos, static n=150)",
		"intensity", "faults", "episodes", "open", "mean_stab", "max_stab", "p_unexcused")
	const rounds = 1500
	for _, intensity := range []float64{0.5, 1, 2, 4} {
		var faults, episodes, open, maxStab, stabSum, unex int
		for seed := int64(1); seed <= int64(seeds); seed++ {
			prof, err := fault.Preset("mixed", intensity)
			if err != nil {
				panic(err)
			}
			prof.Seed = seed * 7717
			prof.Until = rounds * 3 / 5
			res, err := obs.RunSoak(obs.SoakConfig{
				N: 150, Dmax: 3, Seed: seed, Workers: 4,
				Static: true, MaxRounds: rounds,
				Fault: prof, ConfirmWindow: 10,
			})
			if err != nil {
				panic(err)
			}
			faults += res.FaultsInjected
			episodes += res.Episodes
			open += res.EpisodesOpen
			stabSum += int(res.MeanStabRounds*float64(res.Episodes) + 0.5)
			if res.MaxStabRounds > maxStab {
				maxStab = res.MaxStabRounds
			}
			unex += res.EpisodeUnexcused + res.UnexcusedOutside
		}
		mean := 0.0
		if episodes > 0 {
			mean = float64(stabSum) / float64(episodes)
		}
		tb.AddRow(fmt.Sprintf("%.1f", intensity), faults, episodes, open,
			fmt.Sprintf("%.1f", mean), maxStab,
			fmt.Sprintf("%.4f", float64(unex)/float64(seeds*rounds)))
	}
	return tb
}
