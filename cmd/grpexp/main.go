// Command grpexp regenerates the reproduction's experiment tables
// (EXPERIMENTS.md): every table and figure-equivalent of the evaluation,
// printed as aligned text (default), markdown or TSV.
//
// Usage:
//
//	grpexp [-format text|markdown|tsv] [-seeds N] [-only E6]
//	grpexp -only E7c -introspect localhost:6060   # live pprof while it runs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/introspect"
)

func main() {
	format := flag.String("format", "text", "output format: text, markdown or tsv")
	seeds := flag.Int("seeds", experiments.Seeds, "seeds per configuration")
	only := flag.String("only", "", "run only the experiment whose id matches (e.g. E6)")
	introspectAddr := flag.String("introspect", "", "serve net/http/pprof on this address while the suite runs (experiments own their engines, so no registry is exposed)")
	flag.Parse()

	if *introspectAddr != "" {
		srv, err := introspect.Serve(*introspectAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grpexp:", err)
			os.Exit(2)
		}
		defer srv.Close()
	}

	type tables = []*experiments.Table
	type exp struct {
		id  string
		run func() tables
	}
	suite := []exp{
		{"E1", func() tables { return tables{experiments.E1Stabilization(*seeds)} }},
		{"E2", func() tables { return tables{experiments.E2Agreement(*seeds)} }},
		{"E4", func() tables { return tables{experiments.E4MergeGadgets(*seeds)} }},
		{"E5", func() tables { return tables{experiments.E5Compatibility()} }},
		{"E6", func() tables { return tables{experiments.E6Continuity(*seeds)} }},
		{"E7", func() tables {
			a, b := experiments.E7Scaling(*seeds)
			return tables{a, b}
		}},
		{"E7c", func() tables {
			return tables{experiments.E7cSpatialScale(*seeds), experiments.E7cDeltaScale(*seeds)}
		}},
		{"E8", func() tables {
			return tables{experiments.E8Lifetime(*seeds), experiments.E8bHeadLoss(*seeds)}
		}},
		{"E9", func() tables { return tables{experiments.E9Loss(*seeds)} }},
		{"E10", func() tables { return tables{experiments.E10Ablation(*seeds)} }},
		{"E11", func() tables { return tables{experiments.E11Overhead()} }},
		{"E12", func() tables { return tables{experiments.E12Quarantine(*seeds)} }},
		{"E13", func() tables { return tables{experiments.E13Density(*seeds)} }},
		{"E13b", func() tables { return tables{experiments.E13bDense(*seeds)} }},
		{"E14", func() tables { return tables{experiments.E14Stabilizers(*seeds)} }},
		{"E15", func() tables { return tables{experiments.E15Collision(*seeds)} }},
		{"E16", func() tables { return tables{experiments.E16Chaos(*seeds)} }},
	}

	ran := 0
	for _, e := range suite {
		if *only != "" && !strings.EqualFold(e.id, *only) {
			continue
		}
		for _, tb := range e.run() {
			var err error
			switch *format {
			case "markdown":
				err = tb.WriteMarkdown(os.Stdout)
			case "tsv":
				err = tb.WriteTSV(os.Stdout)
			default:
				err = tb.WriteText(os.Stdout)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "grpexp:", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "grpexp: no experiment matches %q\n", *only)
		os.Exit(2)
	}
}
