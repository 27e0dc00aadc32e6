// Command p4lru-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	p4lru-bench list
//	p4lru-bench run    [-scale small|default] [-csv] [-json] [-plot] [-o dir]
//	                   [-metrics :addr] [-progress=false] <id>... | all
//	p4lru-bench verify [-scale small|default] [-metrics :addr]
//	p4lru-bench replay [-trace file.p4lt] [-policy spec] [-shards N]
//	                   [-parallel N] ...
//	p4lru-bench cluster  [-nodes N] [-replicas R] [-net] [-kill] ...
//
// Each experiment prints the same rows/series the paper reports (§4); -csv
// additionally writes one CSV per panel into -o, -json one JSON object per
// panel (machine-readable bench trajectory), -plot renders terminal charts,
// and verify re-checks the paper's headline claims (exit 1 on any failure)
// — the artifact-evaluation entry point.
//
// replay pushes a packet trace through the sharded serving engine
// (internal/engine) from -parallel concurrent goroutines and reports
// throughput, hit rate and per-shard accounting — the concurrency
// counterpart of the single-threaded policy experiments. With -backing the
// replay serves look-through: misses fetch from a backing store (map, btree,
// or remote:host:port over the wire protocol) through the miss-path loader,
// and the report adds miss-latency quantiles plus loader/write-behind
// accounting; -attempts, -fetch-timeout, -hedge and -inflight shape the
// loader, -writebehind drains evictions back into the store.
//
// -metrics serves live run counters on the given address while experiments
// execute: /metrics (Prometheus text), /metrics.json (JSON snapshot),
// /debug/vars (expvar) and /debug/pprof. A progress line (experiments done,
// packets simulated, packets/sec) is printed to stderr every two seconds
// during multi-experiment runs; -progress=false silences it.
//
// cluster spins an N-node consistent-hash ring inside one process and
// replays a Zipf workload through cluster.Router — hot-key replication,
// heartbeat failure detection and warm range migration in one command.
// -net reaches each node over real loopback UDP/TCP; -kill murders a node
// mid-replay and reports the failover time and recovered hit ratio.
//
// -cpuprofile/-memprofile (on run and replay) write whole-run pprof files
// for offline diffing across commits — the complement of the live -metrics
// pprof server for diagnosing hot-path regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/asciiplot"
	"github.com/p4lru/p4lru/internal/experiments"
	"github.com/p4lru/p4lru/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, r := range experiments.All() {
			fmt.Printf("%-18s %s\n", r.ID, r.Description)
		}
	case "run":
		if err := runCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench:", err)
			os.Exit(1)
		}
	case "verify":
		if err := verifyCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench:", err)
			os.Exit(1)
		}
	case "replay":
		if err := replayCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench:", err)
			os.Exit(1)
		}
	case "cluster":
		if err := clusterCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench:", err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  p4lru-bench list
  p4lru-bench run    [-scale small|default] [-csv] [-json] [-plot] [-o dir]
                     [-metrics :addr] [-progress=false]
                     [-cpuprofile f] [-memprofile f] <id>... | all
  p4lru-bench verify [-scale small|default] [-metrics :addr]
  p4lru-bench replay [-trace file.p4lt] [-packets N] [-flows N] [-segments n]
                     [-policy spec] [-mem bytes] [-shards N] [-parallel N]
                     [-batch N] [-queue N] [-block] [-metrics :addr]
                     [-backing spec] [-attempts N] [-fetch-timeout d]
                     [-hedge d] [-inflight N] [-writebehind]
                     [-cpuprofile f] [-memprofile f]
  p4lru-bench cluster [-nodes N] [-replicas R] [-hotk N] [-vnodes N]
                     [-policy spec] [-mem bytes] [-shards N] [-queries N]
                     [-flows N] [-skew z] [-seed s] [-net] [-kill]`)
}

// serveMetrics wires the default registry into the experiment runs and, when
// addr is non-empty, serves it over HTTP. It returns the registry.
func serveMetrics(addr string) (*obs.Registry, error) {
	reg := obs.Default()
	experiments.Instrument(reg)
	if addr == "" {
		return reg, nil
	}
	resolved, _, err := obs.Serve(addr, reg)
	if err != nil {
		return nil, fmt.Errorf("serving metrics: %w", err)
	}
	fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (json: /metrics.json, pprof: /debug/pprof)\n", resolved)
	return reg, nil
}

// packetsSimulated sums the per-system work counters: one unit per simulated
// NAT packet, telemetry packet, or completed query.
func packetsSimulated(reg *obs.Registry) uint64 {
	return reg.CounterValue("nat_packets_total") +
		reg.CounterValue("telemetry_packets_total") +
		reg.CounterValue("kvindex_queries_total")
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scaleName := fs.String("scale", "default", "experiment scale: small or default")
	csv := fs.Bool("csv", false, "also write CSV files")
	jsonOut := fs.Bool("json", false, "also write one JSON file per panel")
	plot := fs.Bool("plot", false, "render terminal charts")
	outDir := fs.String("o", ".", "directory for CSV/JSON output")
	metricsAddr := fs.String("metrics", "", "serve /metrics and pprof on this address during the run")
	progress := fs.Bool("progress", true, "print a periodic progress line to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no experiment ids given (try 'all' or 'p4lru-bench list')")
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench:", perr)
		}
	}()

	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}

	var runners []experiments.Runner
	if fs.NArg() == 1 && fs.Arg(0) == "all" {
		runners = experiments.All()
	} else {
		for _, id := range fs.Args() {
			r, ok := experiments.Find(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			runners = append(runners, r)
		}
	}

	reg, err := serveMetrics(*metricsAddr)
	if err != nil {
		return err
	}
	defer experiments.Instrument(nil)

	// Progress reporter: experiments completed, packets simulated,
	// packets/sec over the last tick.
	var done atomic.Int64
	var current atomic.Value // string: the experiment now running
	stopProgress := func() {}
	if *progress && len(runners) > 1 {
		const tick = 2 * time.Second
		stop := make(chan struct{})
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			t := time.NewTicker(tick)
			defer t.Stop()
			last := packetsSimulated(reg)
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					now := packetsSimulated(reg)
					id, _ := current.Load().(string)
					fmt.Fprintf(os.Stderr, "progress: %d/%d experiments (%s) · %.2fM packets · %.0fk pkt/s\n",
						done.Load(), len(runners), id,
						float64(now)/1e6, float64(now-last)/tick.Seconds()/1e3)
					last = now
				}
			}
		}()
		stopProgress = func() { close(stop); <-stopped }
	}
	defer stopProgress()

	for _, r := range runners {
		current.Store(r.ID)
		packetsBefore := packetsSimulated(reg)
		start := time.Now()
		figs := r.Run(scale)
		wall := time.Since(start)
		packets := packetsSimulated(reg) - packetsBefore
		done.Add(1)
		fmt.Printf("== %s (%s) — %v\n\n", r.ID, r.Description, wall.Round(time.Millisecond))
		for _, f := range figs {
			fmt.Println(f.Format())
			if *plot {
				fmt.Println(plotFigure(f))
			}
			if *csv {
				path := filepath.Join(*outDir, f.ID+".csv")
				if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
					return fmt.Errorf("writing %s: %w", path, err)
				}
				fmt.Printf("(csv written to %s)\n\n", path)
			}
			if *jsonOut {
				path := filepath.Join(*outDir, f.ID+".json")
				if err := writePanelJSON(path, r, f, wall, packets); err != nil {
					return err
				}
				fmt.Printf("(json written to %s)\n\n", path)
			}
		}
	}
	return nil
}

// panelJSON is the machine-readable per-panel result record the bench
// trajectory tracks across PRs.
type panelJSON struct {
	Experiment    string       `json:"experiment"`
	ID            string       `json:"id"`
	Title         string       `json:"title"`
	XLabel        string       `json:"x_label"`
	YLabel        string       `json:"y_label"`
	Rows          int          `json:"rows"`
	Series        []seriesJSON `json:"series"`
	WallMS        float64      `json:"wall_ms"`
	PacketsPerSec float64      `json:"packets_per_sec"`
}

type seriesJSON struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

func writePanelJSON(path string, r experiments.Runner, f experiments.Figure, wall time.Duration, packets uint64) error {
	p := panelJSON{
		Experiment: r.ID,
		ID:         f.ID,
		Title:      f.Title,
		XLabel:     f.XLabel,
		YLabel:     f.YLabel,
		Rows:       f.Rows(),
		WallMS:     float64(wall.Microseconds()) / 1e3,
	}
	if wall > 0 {
		p.PacketsPerSec = float64(packets) / wall.Seconds()
	}
	for _, s := range f.Series {
		sj := seriesJSON{Name: s.Name, Points: make([][2]float64, 0, len(s.Points))}
		for _, pt := range s.Points {
			sj.Points = append(sj.Points, [2]float64{pt.X, pt.Y})
		}
		p.Series = append(p.Series, sj)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "small":
		return experiments.TestScale(), nil
	case "default":
		return experiments.DefaultScale(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q", name)
	}
}

// plotFigure renders a figure as a terminal chart; memory/ΔT sweeps get a
// log x-axis.
func plotFigure(f experiments.Figure) string {
	series := make([]asciiplot.Series, 0, len(f.Series))
	logX := true
	for _, s := range f.Series {
		ps := asciiplot.Series{Name: s.Name}
		for _, p := range s.Points {
			ps.Xs = append(ps.Xs, p.X)
			ps.Ys = append(ps.Ys, p.Y)
			if p.X <= 0 {
				logX = false
			}
		}
		series = append(series, ps)
	}
	// Log scale only pays off across ≥2 decades.
	if logX {
		lo, hi := series[0].Xs[0], series[0].Xs[0]
		for _, s := range series {
			for _, x := range s.Xs {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
		}
		logX = hi/lo >= 50
	}
	return asciiplot.Render(series, asciiplot.Options{
		Title:  f.ID + " — " + f.Title,
		XLabel: f.XLabel,
		LogX:   logX,
	})
}

func verifyCmd(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	scaleName := fs.String("scale", "default", "experiment scale: small or default")
	metricsAddr := fs.String("metrics", "", "serve /metrics and pprof on this address during the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	if _, err := serveMetrics(*metricsAddr); err != nil {
		return err
	}
	defer experiments.Instrument(nil)

	start := time.Now()
	claims := experiments.Verify(scale)
	failed := 0
	for _, c := range claims {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Printf("[%s] %-16s %s\n%22s%s\n", status, c.ID, c.Statement, "", c.Detail)
	}
	fmt.Printf("\n%d/%d claims hold (%v)\n", len(claims)-failed, len(claims),
		time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return fmt.Errorf("%d claim(s) failed", failed)
	}
	return nil
}
