package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// childArgs, when set in the environment, makes the test binary run the
// benchmark's main with those arguments (space-separated) and exit with its
// code — the command under test, without a separate build. childInject
// additionally corrupts a reply of the first measured phase.
const (
	childArgs   = "BENCH_TEST_CHILD_ARGS"
	childInject = "BENCH_TEST_CHILD_INJECT"
)

func TestMain(m *testing.M) {
	if args := os.Getenv(childArgs); args != "" {
		if os.Getenv(childInject) != "" {
			// Past the first reply and the warm-up: into the fixed phase.
			injectWrongValueAt.Store(int64(newScale(1, true).warmOps + 100))
		}
		os.Exit(run(strings.Fields(args), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func readRepoBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	f, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCode: BENCHMARK.json declares exactly the
// workloads and metrics the code reports, with the same units and
// directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readRepoBenchmark(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !equalDefs(e2e, e2eMetrics) {
		t.Errorf("end_to_end mismatch:\n file %v\n code %v", e2e, e2eMetrics)
	}
	if !equalDefs(layer, layerMetrics) {
		t.Errorf("per_layer mismatch:\n file %v\n code %v", layer, layerMetrics)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload, untraced and traced, at smoke scale and
// checks the output contract: one "workload name value unit" line per
// declared metric, then a JSON result line with exactly the declared
// metrics.
func TestSmoke(t *testing.T) {
	f := readRepoBenchmark(t)
	declared := map[string]string{}
	for _, m := range f.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		declared[m.Name] = m.Unit
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--smoke", "--workload", w.name, "--seed", "3", "--trace", trace, "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			want := len(metricDefs(trace == "1"))
			if len(lines) != want+1 {
				t.Fatalf("%s trace=%s: %d lines, want %d metric lines and a result", w.name, trace, len(lines), want)
			}
			for _, l := range lines[:want] {
				fs := strings.Fields(l)
				if len(fs) != 4 || fs[0] != w.name {
					t.Fatalf("bad metric line %q", l)
				}
				if !nameRE.MatchString(fs[1]) {
					t.Errorf("metric name %q does not match %s", fs[1], nameRE)
				}
				if unit, ok := declared[fs[1]]; !ok || unit != fs[3] {
					t.Errorf("metric %s %s is not declared in BENCHMARK.json", fs[1], fs[3])
				}
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[want]), &res); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("result line keys: %s", lines[want])
			}
			var r result
			if err := json.Unmarshal([]byte(lines[want]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted < 1 || len(r.Metrics) != want {
				t.Errorf("%s trace=%s: result %+v", w.name, trace, r)
			}
		}
	}
}

// TestWrongValueFailsRun: one corrupted reply makes the command report
// "correct": false and exit non-zero.
func TestWrongValueFailsRun(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childArgs+"=--smoke --workload index-ycsb --seed 1", childInject+"=1")
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("exit 0 with a corrupted reply; output:\n%s", out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.Correct {
		t.Errorf("want a result line with correct=false, got %q", lines[len(lines)-1])
	}
}
