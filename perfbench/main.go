// Command perfbench is lopram's benchmark. It serves lopramd's HTTP
// surface in its own process on a loopback listener, drives one workload
// against it for a fixed time, checks every result against a reference
// computed by calling the engines directly, and prints one JSON line:
// the correctness tally and either the end-to-end metrics (-trace 0) or,
// from a run with the flight recorder attached, the per-layer ones
// (-trace 1). README.md describes the workloads and the metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload stream-unique --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res, err := run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := res.encode(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d\n", res.attempted, res.failed)
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
