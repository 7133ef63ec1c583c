// Command checkmanifest validates the JSON result manifests `hetsim -json`
// writes (BENCH_<experiment>.json): schema version, consistent failure
// counts, no failed operating point, and one cost row per sweep job, their
// wall times within the experiment's wall clock × -jobs. A file of any
// other shape is refused — ReadManifest rejects unknown fields. It exits
// non-zero on any violation: the gate CI runs after each `hetsim -exp …
// -json results-ci`.
//
// Usage:
//
//	checkmanifest results-ci/BENCH_fig11.json [more.json...]
package main

import (
	"flag"
	"fmt"
	"os"

	"heteroif/internal/experiments"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: checkmanifest <manifest.json>...")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		if err := checkOne(path); err != nil {
			fmt.Fprintf(os.Stderr, "checkmanifest: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkOne validates one experiment manifest.
func checkOne(path string) error {
	m, err := experiments.ReadManifest(path)
	if err != nil {
		return err
	}
	if err := m.Check(); err != nil {
		return err
	}
	fmt.Printf("%s: ok (%s, %d points, %d tables, %d ms", path, m.Experiment,
		len(m.Points), len(m.Tables), m.WallClockMS)
	if len(m.Costs) > 0 {
		fmt.Printf(", %d jobs, pool idle %d ms", len(m.Costs), m.PoolIdleMS)
	}
	if m.Git != "" {
		fmt.Printf(", git %s", m.Git)
	}
	fmt.Println(")")
	return nil
}
