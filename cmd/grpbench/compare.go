package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// verdict of one (metric, workload) row of B against A.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// judge applies a metric's bound to two sets of runs. worsening is B's
// median against A's as a share of A's, positive when B is worse. A
// spread wider than the bound cannot certify "same": the row is
// unresolved unless every run of B beats every run of A.
func judge(m metric, a, b []float64) (v string, worsening, spreadAB float64) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	worsening = sign * (mb - ma) / ma
	spreadAB = max(spread(a), spread(b))
	switch {
	case worsening > m.bound:
		return vWorse, worsening, spreadAB
	case spreadAB > m.bound:
		if allBeat(sign, b, a) {
			return vBetter, worsening, spreadAB
		}
		return vUnresolved, worsening, spreadAB
	case worsening < -m.bound:
		return vBetter, worsening, spreadAB
	}
	return vSame, worsening, spreadAB
}

// allBeat reports whether every run in xs reads better than every run in
// ys (sign +1: lower is better).
func allBeat(sign float64, xs, ys []float64) bool {
	xlo, xhi := minMax(xs)
	ylo, yhi := minMax(ys)
	if sign > 0 {
		return xhi < ylo
	}
	return xlo > yhi
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints one row per (metric, workload) — end-to-end first,
// then host time — and returns the exit status: non-zero on any worse
// end-to-end row, on a failed round in either set, or when runs of the
// same seed disagree on a simulated statistic (the protocol changed, not
// the simulator).
func compareSets(pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fatal(2, err.Error())
	}
	b, err := readSet(pathB)
	if err != nil {
		fatal(2, err.Error())
	}
	fmt.Printf("A: %s  commit %.12s dirty=%v seeds %v load %.2f\n", pathA, a.Manifest.Commit, a.Manifest.Dirty, a.Manifest.Seeds, a.Manifest.LoadavgStart)
	fmt.Printf("B: %s  commit %.12s dirty=%v seeds %v load %.2f\n", pathB, b.Manifest.Commit, b.Manifest.Dirty, b.Manifest.Seeds, b.Manifest.LoadavgStart)
	sameSeeds := slices.Equal(a.Manifest.Seeds, b.Manifest.Seeds)

	status := 0
	fmt.Printf("%-16s %-26s %-10s %9s %7s %7s  %s\n", "workload", "metric", "verdict", "B vs A", "bound", "spread", "A median [q1..q3] -> B median [q1..q3] unit")
	rows := func(specs []metric, gated bool) {
		counts := map[string]int{}
		for i := range workloads {
			w := workloads[i].name
			for _, m := range specs {
				sa, oka := a.EndToEnd[w][m.name]
				sb, okb := b.EndToEnd[w][m.name]
				if !oka || !okb {
					fmt.Printf("%-16s %-26s missing (in A: %v, in B: %v)\n", w, m.name, oka, okb)
					status = 1
					continue
				}
				v, worsening, sp := judge(m, sa.Values, sb.Values)
				// "sim:" metrics are exact for a seed: equal seeds must give
				// bit-equal values, whatever the bound says.
				if sameSeeds && m.sim() && !slices.Equal(sa.Values, sb.Values) {
					v = vWorse
					fmt.Printf("%-16s %-26s differs between A and B at equal seeds: the protocol changed\n", w, m.name)
				}
				counts[v]++
				if v == vWorse && gated {
					status = 1
				}
				fmt.Printf("%-16s %-26s %-10s %+8.2f%% %6.1f%% %6.2f%%  %.6g [%.6g..%.6g] -> %.6g [%.6g..%.6g] %s (ratio base: A median)\n",
					w, m.name, v, 100*worsening*signOf(m), 100*m.bound, 100*sp,
					sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, m.unit)
			}
		}
		fmt.Printf("better %d, same %d, worse %d, unresolved %d\n\n", counts[vBetter], counts[vSame], counts[vWorse], counts[vUnresolved])
	}
	rows(endToEnd, true)
	fmt.Println("host time (not gated on this host: read the spread column first)")
	rows(hostTime, false)
	for _, s := range []struct {
		tag string
		set *resultSet
	}{{"A", a}, {"B", b}} {
		att, failed := 0, 0
		for _, r := range s.set.Runs {
			att += r.Result.Attempted
			failed += r.Result.Failed
		}
		fmt.Printf("%s: rounds_failed_share %g (%d of %d)\n", s.tag, ratio(float64(failed), float64(att)), failed, att)
		if failed > 0 {
			status = 1
		}
	}
	return status
}

// signOf turns the "worsening" share back into a signed change of the
// metric's own value for display (+ means the number went up).
func signOf(m metric) float64 {
	if m.better == "higher" {
		return -1
	}
	return 1
}
