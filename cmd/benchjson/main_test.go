package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planted is `go test -bench -benchmem` output as make bench feeds it:
// header lines, then benchmarks with the -GOMAXPROCS suffix. Slow is
// repeated as -count does, its fastest run (40 ns) last.
const planted = `goos: linux
goarch: amd64
pkg: example.com/p
cpu: Planted CPU @ 1.00GHz
BenchmarkCore/core=flat-2         	 1000	        10.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkCore/core=flat-batch-2   	 1000	        12.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkCore/core=generic-2      	 1000	        20.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkAlloc-2                  	 1000	         5.00 ns/op	      16 B/op	       1 allocs/op
BenchmarkSlow-2                   	 1000	        90.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkSlow-2                   	 1000	        40.00 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	example.com/p	1.234s
`

// runOn runs benchjson over planted with args, writing the report to a
// temporary file, and returns the exit status, stderr and the report.
func runOn(t *testing.T, args ...string) (int, string, Report) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-o", out}, args...), strings.NewReader(planted), &stdout, &stderr)
	var rep Report
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
	}
	return code, stderr.String(), rep
}

// baselineFile writes a one-benchmark report recorded on cpu.
func baselineFile(t *testing.T, cpu, name string, ns float64) string {
	t.Helper()
	data, err := json.Marshal(Report{CPU: cpu, Benchmarks: []Result{{Name: name, NsPerOp: ns}}})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGates plants each gate kind on both sides of its bound.
func TestGates(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"faster passes", []string{"-faster", "Core/core=flat<Core/core=generic"}, 0},
		{"faster fails", []string{"-faster", "Core/core=generic<Core/core=flat"}, 1},
		{"faster fails on a tie", []string{"-faster", "Core/core=flat<Core/core=flat"}, 1},
		// Core/core=flat also names flat-batch; the exact name wins.
		{"maxratio passes at its bound", []string{"-maxratio", "Core/core=flat<=0.5*Core/core=generic"}, 0},
		{"maxratio fails past its bound", []string{"-maxratio", "Core/core=flat-batch<=0.5*Core/core=generic"}, 1},
		{"zeroalloc passes", []string{"-zeroalloc", "Core/core=flat"}, 0},
		{"zeroalloc fails", []string{"-zeroalloc", "Alloc"}, 1},
		{"best of N", []string{"-maxratio", "Slow<=2*Core/core=generic"}, 0},
		{"best of N, no better", []string{"-maxratio", "Slow<=1.9*Core/core=generic"}, 1},
		{"one failure fails the run", []string{"-zeroalloc", "Core/core=flat", "-zeroalloc", "Alloc"}, 1},
		{"ambiguous pattern", []string{"-zeroalloc", "Core"}, 2},
		{"unknown pattern", []string{"-zeroalloc", "Nope"}, 2},
		{"bad maxratio", []string{"-maxratio", "Core/core=flat<Core/core=generic"}, 2},
		{"within needs a baseline", []string{"-within", "Core/core=flat=3"}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if code, stderr, _ := runOn(t, c.args...); code != c.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.want, stderr)
			}
		})
	}
}

// TestWithin compares against a baseline: a run at most FACTOR times the
// baseline's ns/op passes, a slower one fails, and a benchmark missing from
// the baseline is skipped.
func TestWithin(t *testing.T) {
	for _, c := range []struct {
		name   string
		baseNs float64
		want   int
	}{
		{"within the factor", 4, 0},    // 10 ≤ 3×4
		{"past the factor", 3, 1},      // 10 > 3×3
		{"at the factor", 10.0 / 3, 0}, // 10 ≤ 3×(10/3)
	} {
		t.Run(c.name, func(t *testing.T) {
			base := baselineFile(t, "Planted CPU @ 1.00GHz", "BenchmarkCore/core=flat", c.baseNs)
			code, stderr, _ := runOn(t, "-baseline", base, "-within", "Core/core=flat=3")
			if code != c.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.want, stderr)
			}
			if strings.Contains(stderr, "warning") {
				t.Fatalf("a same-cpu baseline drew a warning:\n%s", stderr)
			}
		})
	}
	base := baselineFile(t, "Planted CPU @ 1.00GHz", "BenchmarkOther", 1)
	code, stderr, _ := runOn(t, "-baseline", base, "-within", "Core/core=flat=3")
	if code != 0 || !strings.Contains(stderr, "skip BenchmarkCore/core=flat") {
		t.Fatalf("exit %d, stderr:\n%s; want 0 and a skip line", code, stderr)
	}
}

// TestBaselineFromAnotherCPUWarns: a baseline recorded on another cpu draws
// one warning line naming both cpu strings, and the gates still run.
func TestBaselineFromAnotherCPUWarns(t *testing.T) {
	base := baselineFile(t, "Other CPU", "BenchmarkCore/core=flat", 1)
	code, stderr, _ := runOn(t, "-baseline", base, "-within", "Core/core=flat=3")
	if code != 1 {
		t.Fatalf("exit %d, want 1: the -within gate still runs; stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stderr, "warning:"); n != 1 ||
		!strings.Contains(stderr, `"Other CPU"`) || !strings.Contains(stderr, `"Planted CPU @ 1.00GHz"`) {
		t.Fatalf("want one warning naming both cpus; stderr:\n%s", stderr)
	}
}

// TestReport checks the JSON record: header fields, one entry per
// benchmark with its fastest run, and each -faster ordering with its ratio.
func TestReport(t *testing.T) {
	code, stderr, rep := runOn(t, "-faster", "Core/core=flat<Core/core=generic")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if rep.CPU != "Planted CPU @ 1.00GHz" || rep.Goos != "linux" || rep.Pkg != "example.com/p" {
		t.Fatalf("header = %q %q %q", rep.CPU, rep.Goos, rep.Pkg)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("%d benchmarks, want 5 (Slow's two runs kept as one)", len(rep.Benchmarks))
	}
	slow, err := rep.find("Slow")
	if err != nil || slow.NsPerOp != 40 {
		t.Fatalf("Slow = %+v, %v; want its fastest run, 40 ns/op", slow, err)
	}
	alloc, _ := rep.find("Alloc")
	if alloc.BytesPerOp != 16 || alloc.AllocsPerOp != 1 {
		t.Fatalf("Alloc = %+v, want 16 B/op and 1 allocs/op", alloc)
	}
	if len(rep.Speedups) != 1 || rep.Speedups[0].Ratio != 2 {
		t.Fatalf("speedups = %+v, want one at ratio 2", rep.Speedups)
	}
}

// TestNoBenchmarks: input without a benchmark line fails the run.
func TestNoBenchmarks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader("PASS\n"), &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
}
