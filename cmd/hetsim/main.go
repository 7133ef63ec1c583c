// Command hetsim runs the paper-reproduction experiments: one named
// experiment per table and figure of the evaluation (Sec. 8).
//
// Usage:
//
//	hetsim -exp fig11                  # shortened CI-scale run
//	hetsim -exp fig14 -full            # paper-scale system and windows
//	hetsim -exp all -csv out/          # everything, with CSV output
//	hetsim -exp all -jobs 8 -json out/ # parallel sweep + JSON manifests
//	hetsim -list
//
// -jobs runs independent operating points concurrently (point-level
// parallelism); -workers parallelizes the cycle loop of each simulation
// (cycle-level parallelism). Both are deterministic: results are
// bit-identical for any -jobs/-workers values.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"heteroif/internal/experiments"
	"heteroif/internal/sweep"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID (e.g. fig11, table3) or \"all\"")
		spec    = flag.String("run", "", "run a custom simulation from a JSON spec file")
		full    = flag.Bool("full", false, "paper-scale systems and simulation windows (slow)")
		tiny    = flag.Bool("tiny", false, "smoke-test scale systems and windows (seconds; used by CI)")
		csv     = flag.String("csv", "", "directory for CSV output (optional)")
		jsonDir = flag.String("json", "", "directory for JSON result manifests (BENCH_<exp>.json, optional)")
		seed    = flag.Int64("seed", 0, "random seed override (0 = default)")
		workers = flag.Int("workers", 0, "shards per simulation, one goroutine each (cycle-level, deterministic); "+
			"0 picks one per 512 nodes or per 400 flit moves a cycle, re-read as the load changes, up to the CPUs, or one when -jobs > 1; "+
			"when set explicitly it overrides the \"workers\" field of a -run spec")
		jobs = flag.Int("jobs", 1, "concurrent operating points per experiment (point-level, deterministic; "+
			"results are bit-identical for any value)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-point wall-clock timeout; an expired point is reported "+
			"as failed instead of hanging the sweep (0 = unbounded)")
		ber        = flag.Float64("ber", 0, "serial-PHY bit-error rate for the fault experiment; nonzero overrides its BER sweep with {0, ber}")
		faultseed  = flag.Int64("faultseed", 0, "fault-injection seed, independent of the workload seed (0 = derived)")
		list       = flag.Bool("list", false, "list available experiments")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *tiny && *full { // runners would mix Tiny systems with Full windows
		fmt.Fprintln(os.Stderr, "hetsim: -tiny and -full select different scales; pass at most one")
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetsim: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hetsim: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hetsim: memprofile:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hetsim: memprofile:", err)
				os.Exit(1)
			}
		}()
	}

	if *spec != "" {
		c, err := experiments.LoadCustomRunFile(*spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetsim:", err)
			os.Exit(1)
		}
		// Precedence: an explicit -workers flag wins over the spec's
		// "workers" field, which wins over the default (0: the shard count
		// follows the system size).
		if c.Workers == 0 || flagWasSet("workers") {
			c.Workers = *workers
		}
		if err := c.Execute(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hetsim:", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opts := experiments.Options{
		Full: *full, Tiny: *tiny, CSVDir: *csv, Seed: *seed,
		Workers: *workers, Jobs: *jobs, JobTimeout: *jobTimeout,
		FaultBER: *ber, FaultSeed: *faultseed,
	}
	git := gitDescribe()
	run := func(e experiments.Experiment) {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		o := opts
		o.Progress = progressPrinter(e.ID)
		if *jsonDir != "" {
			o.Manifest = experiments.NewManifest(e, git, o)
		}
		start := time.Now()
		err := e.Run(o, os.Stdout)
		elapsed := time.Since(start)
		if o.Manifest != nil {
			o.Manifest.WallClockMS = elapsed.Milliseconds()
			if werr := o.Manifest.Write(*jsonDir); werr != nil {
				fmt.Fprintf(os.Stderr, "hetsim: writing %s manifest: %v\n", e.ID, werr)
				os.Exit(1)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetsim: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s done in %s ===\n\n", e.ID, elapsed.Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.Registry {
			run(e)
		}
		return
	}
	e, err := experiments.ByID(*exp)
	if err != nil {
		// An unknown ID gets the full menu, not just an error string.
		fmt.Fprintf(os.Stderr, "hetsim: unknown experiment %q — valid experiments:\n", *exp)
		for _, e := range experiments.Registry {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(os.Stderr, "  all          run every experiment above")
		fmt.Fprintln(os.Stderr, "(or use -list)")
		os.Exit(2)
	}
	run(e)
}

// flagWasSet reports whether the named flag was passed on the command line
// (as opposed to holding its default value).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// progressPrinter reports sweep progress on stderr: in-place on a
// terminal, as plain lines when redirected (CI logs).
func progressPrinter(id string) func(sweep.Progress) {
	tty := false
	if st, err := os.Stderr.Stat(); err == nil {
		tty = st.Mode()&os.ModeCharDevice != 0
	}
	return func(p sweep.Progress) {
		line := fmt.Sprintf("%s: %d/%d points (%.0f%%), elapsed %s, eta %s",
			id, p.Done, p.Total, 100*float64(p.Done)/float64(p.Total),
			p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
		if p.Failed > 0 {
			line += fmt.Sprintf(", %d FAILED", p.Failed)
		}
		switch {
		case tty && p.Done == p.Total:
			fmt.Fprintf(os.Stderr, "\r%-78s\n", line)
		case tty:
			fmt.Fprintf(os.Stderr, "\r%-78s", line)
		default:
			fmt.Fprintln(os.Stderr, line)
		}
	}
}

// gitDescribe stamps manifests with the producing tree's version; empty
// outside a git checkout.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
