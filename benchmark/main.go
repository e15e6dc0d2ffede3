// Command benchmark is the repository benchmark: a load generator and
// emulated world that drive Flex's fleet, placement and online-admission
// layers through their public functions, time them from outside, and
// check that what they produce is correct.
//
// Usage:
//
//	go run ./benchmark --workload steady-1000 --seed 1 --seconds 15 --trace 0
//
// Workloads are steady-1000, failover-100, audit-100 and placement (see
// BENCHMARK.json for why each exists). With --trace 0 the last line of
// standard output is a JSON object carrying the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separately traced run.
// The lines before it give the run's provenance and every figure by name
// with its unit and clock.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"flex/internal/clock"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance says where and how a result was measured.
type provenance struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workers    int               `json:"workers"`
	Clocks     map[string]string `json:"clocks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	workloadName := flag.String("workload", "", "steady-1000, failover-100, audit-100 or placement")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 15, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *secs <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	traced := *trace == 1
	ctx := context.Background()
	var host clock.Clock = clock.Real{}

	var (
		rep               *report
		layers            map[string]float64
		attempted, failed int
		failures          []string
		spans             []*spanBuf
		usedWorkers       int
	)
	if cfg, ok := fleetWorkload(*workloadName); ok {
		cfg.Seconds, cfg.Seed, cfg.Trace, cfg.Workers = *secs, *seed, traced, defaultWorkers()
		res, err := runFleet(ctx, cfg, host)
		if err != nil {
			return err
		}
		rep, layers = res.report()
		attempted, failed, usedWorkers = res.attempts, res.fails, res.workers
		for _, r := range res.rooms {
			for _, f := range r.failed {
				failures = append(failures, fmt.Sprintf("room %d: %s", r.idx, f))
			}
		}
		spans = res.spanBufs
	} else if *workloadName == "placement" {
		cfg := placementWorkload()
		cfg.Seconds, cfg.Seed, cfg.Trace, cfg.Workers = *secs, *seed, traced, defaultWorkers()
		res, err := runPlacement(ctx, cfg, host)
		if err != nil {
			return err
		}
		rep, layers = res.rep, res.layers
		attempted, failed, failures = res.attempts, res.fails, res.failures
		usedWorkers, spans = cfg.Workers, res.spanBufs
	} else {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}

	prov := provenance{
		Workload: *workloadName, Seed: *seed, Seconds: *secs, Trace: traced,
		Commit: commit(), GoVersion: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: usedWorkers,
		Clocks: map[string]string{},
	}
	out := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	out.Correct = failed == 0
	defs := endToEnd
	values := contractMetrics(rep)
	if traced {
		defs, values = perLayer, layers
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		prov.Clocks[d.name] = d.clock
	}
	for _, name := range rep.order {
		prov.Clocks[name] = rep.clocks[name]
	}

	if traced && *spansDir != "" {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.csv", *workloadName, *seed))
		if err := writeSpans(path, spans...); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}

	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pj)
	for _, name := range rep.order {
		fmt.Printf("report %-24s %14.6g %-6s %s\n", name, rep.values[name], rep.units[name], rep.clocks[name])
	}
	for _, d := range defs {
		fmt.Printf("metric %-40s %14.6g %-6s %s\n", d.name, values[d.name], d.unit, d.clock)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	rj, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	return nil
}

// contractMetrics maps a workload's report onto the end-to-end metrics:
// a fleet tick of every room, or one admission decision on placement
// (each arrival's best decision of the run; see placementConfig).
func contractMetrics(rep *report) map[string]float64 {
	v := rep.values
	m := map[string]float64{}
	for _, d := range endToEnd {
		m[d.name] = v[d.name]
	}
	if _, fleet := v["room_ticks_per_s"]; fleet {
		m["ops_per_s"], m["op_ms_p50"], m["op_ms_p90"] = v["room_ticks_per_s"], v["quiet_tick_ms_p50"], v["tick_ms_p90"]
	} else {
		m["ops_per_s"], m["op_ms_p50"], m["op_ms_p90"] = v["best_admit_per_s"], v["best_admit_us_p50"]/1e3, v["best_admit_us_p90"]/1e3
	}
	return m
}

// defaultWorkers is GOMAXPROCS capped at the CPU count.
func defaultWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}

// commit reads the checked-out commit from .git in the working
// directory; "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// cpuModel is the first CPU model name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
