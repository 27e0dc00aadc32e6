// Command benchjson converts `go test -bench` output into a JSON record and
// optionally enforces orderings between benchmarks — the tooling behind
// `make bench` (which commits the result as BENCH_<n>.json, the repo's perf
// trajectory) and the CI bench-smoke step (which fails the build when the
// flat P4LRU core is slower than the generic one).
//
// Usage:
//
//	go test -bench ... -benchmem | benchjson [-o out.json]
//	    [-faster A<B ...] [-zeroalloc P ...] [-maxratio 'A<=F*B' ...]
//	    [-baseline FILE] [-within P=FACTOR ...]
//
// Each -faster constraint names two benchmark substrings: the (unique)
// benchmark matching A must have strictly lower ns/op than the one matching
// B, or benchjson exits 1. Matching is by substring over the full benchmark
// name (e.g. "core=flat-batch<core=generic"). -maxratio bounds a same-run
// ratio instead of an ordering: the benchmark matching A must run at no more
// than F times the ns/op of the one matching B — the overhead-budget gate
// (e.g. 'TraceOverhead/trace=on<=1.05*TraceOverhead/trace=off').
//
// When `-count N` repeats a benchmark, the fastest of its runs is kept
// (interference only ever slows a benchmark down, so best-of-N is the
// noise-robust estimate); tight-ratio gates should pair with -count.
//
// -zeroalloc fails the run if the matching benchmark allocates (allocs/op
// > 0) — the hit-path gate. -within compares against a previously committed
// report: the matching benchmark's ns/op must be ≤ FACTOR × the same-named
// benchmark in -baseline (a factor well above 1 absorbs CI noise while still
// catching order-of-magnitude regressions). A baseline recorded on another
// cpu draws one warning line naming both; the gates still run. Custom benchmark metrics
// (b.ReportMetric, e.g. p99-miss-ns) are parsed into each benchmark's
// "metrics" map, and benchmarks reporting *-miss-ns metrics are summarized
// in the report's miss_latency panel.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric values by unit (e.g.
	// "p99-miss-ns": 5086).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document benchjson writes.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
	// Speedups records every -faster constraint as A, B and the measured
	// ratio nsB/nsA (>1 means A is faster).
	Speedups []Speedup `json:"speedups,omitempty"`
	// MissLatency summarizes every benchmark that reported *-miss-ns custom
	// metrics — the miss-path latency panel of the perf trajectory.
	MissLatency []MissLatency `json:"miss_latency,omitempty"`
}

// Speedup is one verified ordering.
type Speedup struct {
	Fast  string  `json:"fast"`
	Slow  string  `json:"slow"`
	Ratio float64 `json:"ratio"`
}

// MissLatency is one benchmark's miss-latency quantile summary.
type MissLatency struct {
	Name  string  `json:"name"`
	P50Ns float64 `json:"p50_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// benchLine matches "BenchmarkName-8  123  45.6 ns/op[  7 B/op  0 allocs/op]".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// metricPair matches one "<value> <unit>" pair in a benchmark line's tail,
// covering both builtin units (B/op) and custom ReportMetric ones
// (p99-miss-ns).
var metricPair = regexp.MustCompile(`([\d.eE+-]+) ([\w/-]+)`)

type stringList []string

func (f *stringList) String() string     { return strings.Join(*f, " ") }
func (f *stringList) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is benchjson over args, the benchmark text on stdin and the two
// outputs. It returns the exit status: 0 when every gate passes, 1 when a
// gate fails or stdin holds no benchmark line, 2 on a bad flag, a missing
// baseline or a pattern that matches no benchmark, or more than one.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the JSON report to this file (default stdout)")
	var constraints, zeroallocs, withins, maxratios stringList
	fs.Var(&constraints, "faster", "constraint A<B: benchmark matching A must beat the one matching B (repeatable)")
	fs.Var(&zeroallocs, "zeroalloc", "benchmark matching P must report 0 allocs/op (repeatable)")
	fs.Var(&maxratios, "maxratio", "constraint A<=F*B: benchmark matching A must run within F× the ns/op of the one matching B (repeatable)")
	baseline := fs.String("baseline", "", "prior benchjson report to compare -within constraints against")
	fs.Var(&withins, "within", "constraint P=FACTOR: benchmark matching P must run within FACTOR× its ns/op in -baseline (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	rep, err := parse(bufio.NewScanner(stdin))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 1
	}
	rep.buildMissLatencyPanel()

	var base *Report
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 2
		}
		base = &Report{}
		if err := json.Unmarshal(data, base); err != nil {
			fmt.Fprintf(stderr, "benchjson: parsing -baseline %s: %v\n", *baseline, err)
			return 2
		}
		if base.CPU != rep.CPU {
			// -within factors assume one machine; say so when they cannot.
			fmt.Fprintf(stderr, "benchjson: warning: baseline %s was recorded on cpu %q, this run on %q\n",
				*baseline, base.CPU, rep.CPU)
		}
	} else if len(withins) > 0 {
		fmt.Fprintln(stderr, "benchjson: -within requires -baseline")
		return 2
	}

	failed := false
	for _, c := range constraints {
		fast, slow, ok := strings.Cut(c, "<")
		if !ok {
			fmt.Fprintf(stderr, "benchjson: bad -faster %q (want A<B)\n", c)
			return 2
		}
		fb, err1 := rep.find(fast)
		sb, err2 := rep.find(slow)
		if err1 != nil || err2 != nil {
			for _, e := range []error{err1, err2} {
				if e != nil {
					fmt.Fprintln(stderr, "benchjson:", e)
				}
			}
			return 2
		}
		ratio := sb.NsPerOp / fb.NsPerOp
		rep.Speedups = append(rep.Speedups, Speedup{Fast: fb.Name, Slow: sb.Name, Ratio: ratio})
		if fb.NsPerOp >= sb.NsPerOp {
			fmt.Fprintf(stderr, "benchjson: FAIL %s (%.2f ns/op) is not faster than %s (%.2f ns/op)\n",
				fb.Name, fb.NsPerOp, sb.Name, sb.NsPerOp)
			failed = true
		} else {
			fmt.Fprintf(stderr, "benchjson: ok %s is %.2fx faster than %s\n", fb.Name, ratio, sb.Name)
		}
	}

	for _, c := range maxratios {
		// Shape: A<=F*B. Benchmark names never contain "<=", and the factor
		// never contains '*', so both cuts are unambiguous.
		a, rest, ok := strings.Cut(c, "<=")
		if !ok {
			fmt.Fprintf(stderr, "benchjson: bad -maxratio %q (want A<=F*B)\n", c)
			return 2
		}
		factorStr, bPat, ok := strings.Cut(rest, "*")
		if !ok {
			fmt.Fprintf(stderr, "benchjson: bad -maxratio %q (want A<=F*B)\n", c)
			return 2
		}
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil || factor <= 0 {
			fmt.Fprintf(stderr, "benchjson: bad -maxratio factor %q\n", factorStr)
			return 2
		}
		ab, err1 := rep.find(a)
		bb, err2 := rep.find(bPat)
		if err1 != nil || err2 != nil {
			for _, e := range []error{err1, err2} {
				if e != nil {
					fmt.Fprintln(stderr, "benchjson:", e)
				}
			}
			return 2
		}
		limit := factor * bb.NsPerOp
		if ab.NsPerOp > limit {
			fmt.Fprintf(stderr, "benchjson: FAIL %s at %.2f ns/op exceeds %.2fx %s (%.2f ns/op)\n",
				ab.Name, ab.NsPerOp, factor, bb.Name, bb.NsPerOp)
			failed = true
		} else {
			fmt.Fprintf(stderr, "benchjson: ok %s %.2f ns/op within %.2fx of %s (%.2f ns/op)\n",
				ab.Name, ab.NsPerOp, factor, bb.Name, bb.NsPerOp)
		}
	}

	for _, p := range zeroallocs {
		b, err := rep.find(p)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 2
		}
		if b.AllocsPerOp > 0 {
			fmt.Fprintf(stderr, "benchjson: FAIL %s allocates %d objects/op, want 0\n", b.Name, b.AllocsPerOp)
			failed = true
		} else {
			fmt.Fprintf(stderr, "benchjson: ok %s is allocation-free\n", b.Name)
		}
	}

	for _, c := range withins {
		// Split on the LAST '=': benchmark names carry k=v sub-bench labels.
		eq := strings.LastIndex(c, "=")
		if eq < 1 {
			fmt.Fprintf(stderr, "benchjson: bad -within %q (want P=FACTOR)\n", c)
			return 2
		}
		pat, factorStr := c[:eq], c[eq+1:]
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil || factor <= 0 {
			fmt.Fprintf(stderr, "benchjson: bad -within factor %q\n", factorStr)
			return 2
		}
		cur, err := rep.find(pat)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 2
		}
		old, err := base.find(cur.Name)
		if err != nil {
			// A benchmark absent from the baseline (new this PR) cannot
			// regress against it; report and move on.
			fmt.Fprintf(stderr, "benchjson: skip %s: not in baseline (%v)\n", cur.Name, err)
			continue
		}
		limit := factor * old.NsPerOp
		if cur.NsPerOp > limit {
			fmt.Fprintf(stderr, "benchjson: FAIL %s at %.2f ns/op exceeds %.1fx baseline %.2f ns/op\n",
				cur.Name, cur.NsPerOp, factor, old.NsPerOp)
			failed = true
		} else {
			fmt.Fprintf(stderr, "benchjson: ok %s %.2f ns/op within %.1fx of baseline %.2f ns/op\n",
				cur.Name, cur.NsPerOp, factor, old.NsPerOp)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// buildMissLatencyPanel collects every benchmark that reported *-miss-ns
// custom metrics into the report's miss_latency section.
func (r *Report) buildMissLatencyPanel() {
	for _, b := range r.Benchmarks {
		p50, ok50 := b.Metrics["p50-miss-ns"]
		p99, ok99 := b.Metrics["p99-miss-ns"]
		if !ok50 && !ok99 {
			continue
		}
		r.MissLatency = append(r.MissLatency, MissLatency{Name: b.Name, P50Ns: p50, P99Ns: p99})
	}
}

// find returns the single benchmark whose name contains substr. An exact
// name match (with or without the Benchmark prefix) wins outright, so
// "X/core=flat" stays unambiguous next to "X/core=flat-batch".
func (r *Report) find(substr string) (Result, error) {
	var hit Result
	n := 0
	for _, b := range r.Benchmarks {
		if b.Name == substr || b.Name == "Benchmark"+substr {
			return b, nil
		}
		if strings.Contains(b.Name, substr) {
			hit = b
			n++
		}
	}
	switch n {
	case 0:
		return hit, fmt.Errorf("no benchmark matches %q", substr)
	case 1:
		return hit, nil
	default:
		return hit, fmt.Errorf("%d benchmarks match %q; be more specific", n, substr)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	seen := make(map[string]int)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		b := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		rest := m[4]
		if mb := regexp.MustCompile(`([\d.]+) MB/s`).FindStringSubmatch(rest); mb != nil {
			b.MBPerSec, _ = strconv.ParseFloat(mb[1], 64)
		}
		if bo := regexp.MustCompile(`(\d+) B/op`).FindStringSubmatch(rest); bo != nil {
			b.BytesPerOp, _ = strconv.ParseInt(bo[1], 10, 64)
		}
		if ao := regexp.MustCompile(`(\d+) allocs/op`).FindStringSubmatch(rest); ao != nil {
			b.AllocsPerOp, _ = strconv.ParseInt(ao[1], 10, 64)
		}
		// Anything else in the tail is a custom b.ReportMetric pair.
		for _, m := range metricPair.FindAllStringSubmatch(rest, -1) {
			switch unit := m[2]; unit {
			case "MB/s", "B/op", "allocs/op":
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit], _ = strconv.ParseFloat(m[1], 64)
			}
		}
		// -count>1 repeats a benchmark name: keep the fastest run (the
		// classic noise-robust estimator — interference only ever slows a
		// benchmark down), so gates compare best-of-N, not one noisy sample.
		if i, ok := seen[b.Name]; ok {
			if b.NsPerOp < rep.Benchmarks[i].NsPerOp {
				rep.Benchmarks[i] = b
			}
			continue
		}
		seen[b.Name] = len(rep.Benchmarks)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, sc.Err()
}
