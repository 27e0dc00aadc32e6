// Command bench is the repository benchmark. Each workload builds its stack
// in-process over loopback, drives it with a seeded load generator, checks
// every reply, and prints every metric as "workload name value unit",
// then one JSON result object as the last line. From the repository root:
//
//	bash bench/run.sh --workload index-ycsb --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh                       # all four workloads, end-to-end metrics
//	bash bench/run.sh -trace 1              # all four, per-layer metrics
//	bash bench/run.sh spread -runs 10       # run-to-run spread of every metric
//
// It exits non-zero, without a result line, if a stack cannot be built, and
// with "correct": false and a non-zero code if any reply is wrong. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// allResult is the last line of a run over every workload.
type allResult struct {
	Correct   bool                              `json:"correct"`
	Attempted int                               `json:"attempted"`
	Failed    int                               `json:"failed"`
	Workloads map[string]map[string]metricValue `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "spread" {
		return spreadMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+" (default all)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 16, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs and phases, for tests")
	jsonOut := fs.String("json", "", "also write the result line to this file")
	outDir := fs.String("out", "bench/out", "directory for the span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	ws := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		ws = []workload{*w}
	}
	if !pacerValid {
		fmt.Fprintln(stderr, "bench: no precise pacer on this OS; open-loop latencies are not valid")
	}

	sc := newScale(*seconds, *smoke)
	all := allResult{Correct: true, Workloads: map[string]map[string]metricValue{}}
	for i := range ws {
		w := &ws[i]
		var res runResult
		var err error
		if *trace == 1 {
			res, err = runTrace(w, sc, *seed, *outDir)
		} else {
			res, err = runE2E(w, sc, *seed)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		ms := map[string]metricValue{}
		for _, def := range metricDefs(*trace == 1) {
			v, ok := res.metrics[def.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(stderr, "bench: %s: metric %s has no finite value (%v)\n", w.name, def.name, v)
				return 1
			}
			ms[def.name] = metricValue{Value: v, Unit: def.unit}
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, def.name, strconv.FormatFloat(v, 'g', -1, 64), def.unit)
		}
		all.Workloads[w.name] = ms
		all.Attempted += res.attempted
		all.Failed += res.failed
		if res.invalid > 0 {
			all.Correct = false
			fmt.Fprintf(stderr, "bench: %s: %d invalid replies; first: %v\n", w.name, res.invalid, res.firstBad)
		}
	}

	var line any = all
	if len(ws) == 1 {
		line = result{Correct: all.Correct, Attempted: all.Attempted, Failed: all.Failed, Metrics: all.Workloads[ws[0].name]}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !all.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
