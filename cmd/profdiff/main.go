// Command profdiff is the function-level half of the perf gate: where
// obsdiff compares two runs' metric series, profdiff aligns their CPU
// profiles by symbol and fails the build when a function's share of the
// run's CPU time rises past threshold. Inputs are single pprof files or
// directories of rotated cpu-*.pb.gz segments (the layout the -profile
// flag writes); the report breaks flat time down by the stage pprof label
// so a regression names both the function and the pipeline stage it hit.
//
// Usage:
//
//	profdiff -baseline results/baseline/profiles -candidate obs-smoke/profiles -report profdiff.md
//
// Exit status: 0 = within thresholds, 1 = regression, 2 = usage or load
// error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profdiff: ")
	baseline := flag.String("baseline", "", "baseline CPU profile: pprof file or directory of cpu-*.pb.gz segments")
	candidate := flag.String("candidate", "", "candidate CPU profile: pprof file or directory of cpu-*.pb.gz segments")
	report := flag.String("report", "", "write the markdown report here (default stdout)")
	reportOnly := flag.Bool("report-only", false, "always exit 0: report regressions without failing")
	shareRise := flag.Float64("share-rise", 0, "flat-share rise in absolute points that fails (default 0.04 = +4pt)")
	minShare := flag.Float64("min-share", 0, "candidate flat share below which a rise is noise (default 0.05 = 5%)")
	top := flag.Int("top", 0, "rows in the report (default 20; failed rows always shown)")
	allowMissing := flag.Bool("allow-missing-baseline", false, "exit 0 with a notice when the baseline does not exist yet")
	flag.Parse()

	if *baseline == "" || *candidate == "" {
		flag.Usage()
		os.Exit(2)
	}
	base, err := obs.LoadCPUProfiles(*baseline)
	if err != nil {
		if *allowMissing && os.IsNotExist(err) {
			fmt.Printf("profdiff: no baseline at %s; nothing to compare (record one with `make perfdiff` or commit results/baseline)\n", *baseline)
			return
		}
		log.Print(err)
		os.Exit(2)
	}
	cand, err := obs.LoadCPUProfiles(*candidate)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	r := obs.DiffProfiles(base, cand, obs.ProfDiffOptions{
		ShareRise: *shareRise,
		MinShare:  *minShare,
		Top:       *top,
	})

	w := os.Stdout
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if err := r.WriteMarkdown(w); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	if r.Regressed() {
		fmt.Fprintln(os.Stderr, "profdiff: REGRESSED (see report)")
		if !*reportOnly {
			os.Exit(1)
		}
	}
}
