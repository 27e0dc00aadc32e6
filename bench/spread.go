package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spreadMain runs each workload -runs times with successive seeds, each in
// a fresh process, and prints every metric's median, quartiles and spreads
// next to its bound in BENCHMARK.json. Use it to set the bounds: a metric
// whose quartile spread exceeds a third of its bound needs a longer phase,
// or a demotion to the per-layer list.
func spreadMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 5, "runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.String("seconds", "16", "measured seconds per run")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics")
	name := fs.String("workload", "", "workload (default all)")
	bench := fs.String("benchmark", "BENCHMARK.json", "file with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds, err := readBounds(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "spread: %v (bounds not shown)\n", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "spread: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tiqr/median\trange/median\tbound\t")
	code := 0
	for _, w := range workloads {
		if *name != "" && w.name != *name {
			continue
		}
		vals := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(*seed+int64(i), 10),
				"--seconds", *seconds, "--trace", *trace)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
				fmt.Fprintf(stderr, "spread: %s seed %d failed: %v\n", w.name, *seed+int64(i), err)
				code = 1
				continue
			}
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
		}
		var names []string
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			xs := vals[k]
			sort.Float64s(xs)
			q1, med, q3 := quartiles(xs)
			b := "-"
			if v, ok := bounds[k]; ok {
				b = strconv.FormatFloat(v, 'g', -1, 64)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.3f\t%.3f\t%s\t\n", w.name, k, med, q1, q3,
				(q3-q1)/med, (xs[len(xs)-1]-xs[0])/med, b)
		}
	}
	tw.Flush()
	return code
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) for sorted xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	ld := len(xs)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var f benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func readBounds(path string) (map[string]float64, error) {
	f, err := readBenchmark(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
