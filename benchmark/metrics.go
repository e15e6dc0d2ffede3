package main

import (
	"sort"
	"time"

	"flex/internal/stats"
)

// Clocks a figure is read from.
const (
	hostClock    = "host"    // wall time of this process
	virtualClock = "virtual" // the emulation's virtual clock
	exact        = "exact"   // deterministic count or ratio
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	name, unit, clock string
}

// endToEnd are the figures a fleet operator sees; every workload reports
// all of them. ops_per_s and op_ms_* are a fleet tick of every room on
// the fleet workloads and one admission decision on placement.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", hostClock},
	{"op_ms_p50", "ms", hostClock},
	{"op_ms_p90", "ms", hostClock},
	{"setup_s", "s", hostClock},
	{"live_heap_mb", "MB", hostClock},
	{"place_s_p50", "s", hostClock},
	{"stranded_pct_offline", "%", exact},
}

// perLayer are the traced run's figures, one row per layer boundary the
// driver times, plus the virtual-clock figures that exist only on some
// workloads. A layer a workload never calls reports 0.
var perLayer = []metricDef{
	{"telemetry.publish.ns_per_sample", "ns", hostClock},
	{"telemetry.publish.samples", "count", exact},
	{"telemetry.publish.dropped", "count", exact},
	{"fleet.pump.ns_per_sample", "ns", hostClock},
	{"fleet.pump.samples", "count", exact},
	{"fleet.pump.allocs_per_call", "count", hostClock},
	{"controller.step.clean_ns_per_round", "ns", hostClock},
	{"controller.step.allocs_per_round", "count", hostClock},
	{"controller.step.rounds", "count", exact},
	{"controller.step.overdraw_ns_per_round", "ns", hostClock},
	{"controller.step.overdraw_rounds", "count", exact},
	{"controller.act.enforced", "count", exact},
	{"controller.act.restored", "count", exact},
	{"rackmgr.state.ns_per_call", "ns", hostClock},
	{"rackmgr.state.calls", "count", exact},
	{"rackmgr.act.actions", "count", exact},
	{"rackmgr.act.effective_ratio", "ratio", exact},
	{"rackmgr.act.errors", "count", exact},
	{"fleet.aggregate.ns_per_call", "ns", hostClock},
	{"fleet.aggregate.allocs_per_call", "count", hostClock},
	{"slo.audit.tick_ns", "ns", hostClock},
	{"slo.audit.probe_tick_ns", "ns", hostClock},
	{"slo.probe.rounds", "count", exact},
	{"slo.probe.failures", "count", exact},
	{"worker.wait_share", "ratio", hostClock},
	{"runtime.gc_cycles", "count", hostClock},
	{"runtime.gc_cpu_share", "ratio", hostClock},
	{"milp.nodes", "count", exact},
	{"milp.nodes_per_s", "1/s", hostClock},
	{"lp.simplex_iters", "count", exact},
	{"milp.node_limit_hits", "count", exact},
	{"online.admit.ns_per_call", "ns", hostClock},
	{"online.admit.allocs_per_call", "count", hostClock},
	{"online.remove.ns_per_call", "ns", hostClock},
	{"online.admit.accept_ratio", "ratio", exact},
	{"setup.place_s", "s", hostClock},
	{"setup.rooms_s", "s", hostClock},
	{"setup.bind_s", "s", hostClock},
	{"bench.gen.ns_per_room_tick", "ns", hostClock},
	{"bench.span_coverage", "ratio", hostClock},
	{"bench.spans_dropped", "count", exact},
	{"episode.count", "count", exact},
	{"episode.detect_s_p50", "s", virtualClock},
	{"episode.shed_s_p50", "s", virtualClock},
	{"episode.shed_s_p90", "s", virtualClock},
	{"online.admit.us_p99", "us", hostClock},
	{"online.stranded_pct", "%", exact},
}

// report is one workload's named figures. The end-to-end figures the
// issue names that apply only to some workloads (room_ticks_per_s,
// shed_s_p50, admit_us_p99, ...) are kept under those names here and
// printed with their unit and clock; the contract metrics map onto them.
type report struct {
	values map[string]float64
	units  map[string]string
	clocks map[string]string
	order  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, units: map[string]string{}, clocks: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, clock string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name], r.units[name], r.clocks[name] = v, unit, clock
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// coverage is the share of the tick spans' time that their child spans
// cover (overlapping children counted once).
func coverage(bufs ...*spanBuf) float64 {
	var all []span
	for _, b := range bufs {
		all = append(all, b.spans...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].tick != all[j].tick {
			return all[i].tick < all[j].tick
		}
		return all[i].start < all[j].start
	})
	var tickNS, coveredNS int64
	for i := 0; i < len(all); {
		j := i
		var parent *span
		var covered, end int64
		end = -1 << 62
		for ; j < len(all) && all[j].tick == all[i].tick; j++ {
			s := &all[j]
			if s.layer == lyTick {
				parent = s
				continue
			}
			lo := max(s.start, end)
			if s.end > lo {
				covered += s.end - lo
			}
			end = max(end, s.end)
		}
		if parent != nil {
			tickNS += parent.end - parent.start
			coveredNS += covered
		}
		i = j
	}
	return ratio(float64(coveredNS), float64(tickNS))
}
