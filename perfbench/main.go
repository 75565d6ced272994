// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload as a closed loop — one client submits a job, waits for
// its result, checks it against a reference, then submits the next — and
// prints one JSON result line last:
//
//	bash perfbench/run.sh --workload wordcount --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off; with --trace 1 it holds the per-layer metrics of a traced
// run. README.md in this directory lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options is what a workload run needs from the command line.
type options struct {
	seed     int64
	duration time.Duration
	// scratch holds the run's spill files and is removed at exit.
	scratch string
	// spans records the benchmark's own spans; it is set exactly when
	// the run is traced.
	spans *spanLog
}

// workloads maps a workload name to its subsystem and runner.
var workloads = map[string]struct {
	owner string
	run   func(options) (report, error)
}{
	"wordcount":    {"netmr", func(o options) (report, error) { return runNetmr(wordcount, o) }},
	"bigram":       {"netmr", func(o options) (report, error) { return runNetmr(bigram, o) }},
	"bigram-spill": {"netmr", func(o options) (report, error) { return runNetmr(bigramSpill, o) }},
	"zoo-fit":      {"core", runZoo},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the closed loop submits jobs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spill files and the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	o := options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		scratch:  scratch,
	}
	defs := endToEnd
	if *trace == 1 {
		o.spans = newSpanLog()
		defs = perLayer
	}

	rep, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.set("failed_ratio", float64(rep.failed)/float64(rep.attempted))
	if o.spans != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := o.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		rep.notef("spans written to %s", path)
	}
	res, err := collect(rep, defs, wl.owner)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	fmt.Fprintf(stdout, "workload %s, seed %d, %d jobs attempted, %d failed\n", *name, *seed, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	printed := make([]string, 0, len(rep.values))
	for n := range rep.values {
		printed = append(printed, n)
	}
	sort.Strings(printed)
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, n := range printed {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", n, rep.values[n], units[n])
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
