package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/fleet"
	"flex/internal/impact"
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/sim"
	"flex/internal/stats"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// The world model is emu.RunFleet's: the §V-C emulation room placed once
// by Flex-Offline, AR(1) rack demand around a per-category target, UPS
// telemetry every 1.5s and rack telemetry every 2s on a 500ms tick.
const (
	tick        = 500 * time.Millisecond
	upsEvery    = 3 // ticks: 1.5s UPS poll
	rackEvery   = 4 // ticks: 2s rack poll
	aggEvery    = 4 // ticks: fleet.Config's default 2s aggregator cadence
	traceSeed   = 9 // emu.RunFleet's §V-C demand trace
	utilization = 0.80
	shedBudget  = power.FlexLatencyBudget
	// placeSamples is how many room placements place_s_p50 is the
	// median of.
	placeSamples = 21
)

// fleetConfig sizes one fleet run. A run is a warm-up of Warm ticks (the
// first Ramp of them ramp demand up) followed by failure cycles of Cycle
// ticks. In every cycle each failing room loses one UPS at a seeded
// offset in [0, Stagger) ticks and gets it back Outage ticks later.
type fleetConfig struct {
	Rooms       int
	Controllers int
	Recorder    bool
	Auditor     bool
	// FailEvery selects the failing rooms: r%FailEvery == 0. Zero means
	// no failures.
	FailEvery int
	Ramp      int
	Warm      int
	Cycle     int
	Stagger   int
	// Outage is how long a failed UPS stays down; zero means it never
	// returns.
	Outage int
	// Seconds is the host-time budget of the measured cycles; the run
	// stops at the first cycle boundary past it. Zero runs exactly
	// Cycles cycles.
	Seconds float64
	Cycles  int
	Workers int
	Seed    int64
	Trace   bool
	// Setups is how many times set-up is repeated (its median is
	// setup_s); the last fleet built is the one measured.
	Setups int
	// mutate, when non-nil, is applied to the fleet after set-up; the
	// negative tests use it to inject faults.
	mutate func(*world)
}

// fleetWorkload returns the configuration of a named fleet workload.
func fleetWorkload(name string) (fleetConfig, bool) {
	base := fleetConfig{Ramp: 20, Warm: 24, Cycle: 120, Stagger: 20, Outage: 30, Setups: 9}
	switch name {
	case "steady-1000":
		base.Rooms, base.Controllers = 1000, 1
		base.Cycle, base.Setups = 12, 5
	case "failover-100":
		base.Rooms, base.Controllers, base.Recorder, base.FailEvery = 100, 3, true, 1
	case "audit-100":
		base.Rooms, base.Controllers, base.Auditor, base.FailEvery = 100, 1, true, 10
	default:
		return fleetConfig{}, false
	}
	return base, true
}

// rackModel is one rack of the replicated placement.
type rackModel struct {
	id     string
	pair   power.PDUPairID
	alloc  float64
	target float64 // demand fraction at full utilization
}

// world is everything one set-up builds: the placement, the fleet and
// its rooms.
type world struct {
	cfg      fleetConfig
	topo     *power.Topology
	racks    []rackModel
	stranded float64 // Eq. 5 stranded share of allocatable power
	clk      *clock.Virtual
	fl       *fleet.Fleet
	rooms    []*room
	solver   *milp.Metrics
	times    setupTimes
}

type setupTimes struct{ place, rooms, bind time.Duration }

// outage is one UPS failure episode of one room, in ticks.
type outage struct {
	ups           int
	fail, recover int  // recover < 0: never
	detect, shed  int  // ticks after fail; -1 until seen
	late          bool // the shed budget ran out before shedding
}

// room is one fault domain's emulated world plus the handles the driver
// drives it through.
type room struct {
	idx    int
	shard  *fleet.Shard
	mgr    *rackmgr.Manager
	aud    *slo.Auditor
	demand []float64
	state  []rackmgr.PowerState // refreshed after each step
	caps   []power.Watts
	down   []bool
	over   []time.Duration
	pair   []float64
	truth  []float64
	upsB   []telemetry.Sample
	rackB  []telemetry.Sample

	// withholdUPS drops the room's UPS batches at ingest (a negative
	// test's fault).
	withholdUPS bool

	cur      *outage
	episodes []outage
	// enforced is this tick's enforced action count, written by the
	// owning worker and read by the main goroutine after the barrier.
	enforced int
	failed   []string
}

// fail records why the room failed; the first few reasons are kept.
func (r *room) fail(format string, args ...any) {
	if len(r.failed) >= 4 {
		return
	}
	r.failed = append(r.failed, fmt.Sprintf(format, args...))
}

// buildWorld runs one set-up: the Flex-Offline placement, the fleet with
// its rooms, and auditor binding.
func buildWorld(ctx context.Context, cfg fleetConfig, host clock.Clock) (*world, error) {
	reg := obs.NewRegistry()
	w := &world{cfg: cfg, solver: milp.NewMetrics(reg)}

	t0 := host.Now()
	pl, err := placeRoom(ctx, w.solver)
	if err != nil {
		return nil, err
	}
	proom := pl.Room
	w.topo = proom.Topo
	proto := sim.ExpandRacks(pl)
	if len(proto) == 0 {
		return nil, fmt.Errorf("room placement placed nothing")
	}
	w.stranded = pl.StrandedFraction()
	t1 := host.Now()

	// Per-category demand targets normalized so the room runs at the
	// target utilization (emu.RunFleet's normalization).
	share := map[workload.Category]float64{
		workload.SoftwareRedundant:      0.90 / 0.80,
		workload.NonRedundantCapable:    0.83 / 0.80,
		workload.NonRedundantNonCapable: 0.67 / 0.80,
	}
	var weighted float64
	for _, r := range proto {
		weighted += share[r.Category] * float64(r.Allocated)
	}
	norm := utilization * float64(w.topo.ProvisionedPower()) / weighted
	w.racks = make([]rackModel, len(proto))
	ids := make([]string, len(proto))
	for i, r := range proto {
		w.racks[i] = rackModel{id: r.ID, pair: r.Pair, alloc: float64(r.Allocated), target: share[r.Category] * norm}
		ids[i] = r.ID
	}
	managed := sim.ManagedRacks(proto)

	w.clk = clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	var rec *recorder.Recorder
	if cfg.Recorder {
		rec = recorder.New(1 << 15)
	}
	w.fl = fleet.New(fleet.Config{Name: "bench", Clock: w.clk, Obs: reg, Recorder: rec})
	sc := impact.Realistic1()
	nUPS := len(w.topo.UPSes)
	w.rooms = make([]*room, cfg.Rooms)
	for i := range w.rooms {
		mgr := rackmgr.NewManager(w.clk, ids)
		shard, err := w.fl.AddRoom(fleet.RoomConfig{
			Name:        fmt.Sprintf("room-%04d", i),
			Topo:        w.topo,
			Racks:       managed,
			Actuator:    mgr,
			Scenario:    sc,
			Controllers: cfg.Controllers,
			Stranded:    pl.StrandedPower(),
			Allocatable: proom.AllocatablePower(),
			Interval:    tick,
		})
		if err != nil {
			return nil, err
		}
		r := &room{
			idx: i, shard: shard, mgr: mgr,
			demand: make([]float64, len(proto)),
			state:  make([]rackmgr.PowerState, len(proto)),
			caps:   make([]power.Watts, len(proto)),
			down:   make([]bool, nUPS),
			over:   make([]time.Duration, nUPS),
			pair:   make([]float64, len(w.topo.Pairs)),
			truth:  make([]float64, nUPS),
			upsB:   make([]telemetry.Sample, nUPS),
			rackB:  make([]telemetry.Sample, len(proto)),
		}
		for j := range r.demand {
			r.demand[j] = 0.2
			r.rackB[j] = telemetry.Sample{Device: ids[j], Valid: true}
		}
		for u := range r.upsB {
			r.upsB[u] = telemetry.Sample{Device: w.topo.UPSes[u].Name, Valid: true}
		}
		w.rooms[i] = r
	}
	t2 := host.Now()

	if cfg.Auditor {
		buf := controller.DefaultBuffer(w.topo)
		for _, r := range w.rooms {
			r.aud = slo.NewAuditor(slo.Config{
				Store: tsdb.NewStore(tsdb.Options{}),
				// Freshness thresholds sit above the 1.5s/2s poll
				// cadences, as in the emulator's auditor wiring.
				UPSFreshness:  3 * time.Second,
				RackFreshness: 4 * time.Second,
			})
			r.aud.Bind(slo.Bindings{
				Clock:            w.clk,
				Topo:             w.topo,
				Racks:            managed,
				UPSView:          r.shard.UPSView(),
				RackView:         r.shard.RackView(),
				Controllers:      r.shard.Controllers(),
				Scenario:         sc,
				Buffer:           buf,
				AllocatablePower: proom.AllocatablePower(),
				Stages:           w.fl.Stages(),
			})
		}
	}
	t3 := host.Now()
	w.times = setupTimes{place: t1.Sub(t0), rooms: t2.Sub(t1), bind: t3.Sub(t2)}
	return w, nil
}

// placeRoom solves and validates the Flex-Offline placement of the §V-C
// room (emu.RunFleet's solver settings).
func placeRoom(ctx context.Context, solver *milp.Metrics) (*placement.Placement, error) {
	room := placement.EmulationRoom()
	trace, err := emulationTrace(room)
	if err != nil {
		return nil, err
	}
	pl, err := placement.FlexOffline{BatchFraction: 0.33, MaxNodes: 150, SolverMetrics: solver}.Place(ctx, room, trace)
	if err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("room placement: %w", err)
	}
	return pl, nil
}

// samplePlace times one more solve of the room's placement. The solve
// takes milliseconds, so place_s_p50 needs more samples than set-ups
// give; the driver takes them between cycles, outside the measured
// ticks, so that a burst of host noise moves few of them.
func (res *fleetResult) samplePlace(ctx context.Context, host clock.Clock) error {
	t0 := host.Now()
	if _, err := placeRoom(ctx, nil); err != nil {
		return err
	}
	res.places = append(res.places, host.Now().Sub(t0))
	return nil
}

// rackPower is the rack's drawn power given its actuator state.
func (r *room) rackPower(w *world, j int) float64 {
	p := r.demand[j] * w.racks[j].alloc
	switch r.state[j] {
	case rackmgr.Off:
		return 0
	case rackmgr.Throttled:
		if c := float64(r.caps[j]); p > c {
			return c
		}
	}
	return p
}

// computeTruth fills r.truth with every UPS's true load.
func (r *room) computeTruth(w *world) {
	for i := range r.pair {
		r.pair[i] = 0
	}
	for j := range w.racks {
		r.pair[w.racks[j].pair] += r.rackPower(w, j)
	}
	for u := range r.truth {
		r.truth[u] = 0
	}
	for _, p := range w.topo.Pairs {
		ld := r.pair[p.ID]
		a, b := p.UPSes[0], p.UPSes[1]
		switch {
		case r.down[a] && r.down[b]:
		case r.down[a]:
			r.truth[b] += ld
		case r.down[b]:
			r.truth[a] += ld
		default:
			r.truth[a] += ld / 2
			r.truth[b] += ld / 2
		}
	}
}

// fleetResult is what one measured fleet run reports.
type fleetResult struct {
	ticks []float64 // system-phase seconds per measured tick
	// quiet are the ticks that carry no telemetry batch: half of all
	// ticks at the 1.5s/2s cadences, so the all-tick median sits on the
	// boundary between them and the UPS-poll ticks.
	quiet    []float64
	setups   []setupTimes
	places   []time.Duration
	snap     fleet.Snapshot // the final aggregate
	heapMB   float64
	rooms    []*room
	world    *world
	layers   map[string]float64
	attempts int
	fails    int
	workers  int
	spanBufs []*spanBuf
}

// runFleet builds the world cfg.Setups times, then drives the last one.
func runFleet(ctx context.Context, cfg fleetConfig, host clock.Clock) (*fleetResult, error) {
	res := &fleetResult{}
	var w *world
	for i := 0; i < max(cfg.Setups, 1); i++ {
		w = nil
		runtime.GC()
		var err error
		w, err = buildWorld(ctx, cfg, host)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, w.times)
		res.places = append(res.places, w.times.place)
	}
	if cfg.mutate != nil {
		cfg.mutate(w)
	}
	res.world, res.rooms = w, w.rooms
	res.workers = min(max(cfg.Workers, 1), len(w.rooms))
	d := newDriver(ctx, w, res.workers, host, cfg.Trace)
	defer d.stop()
	if err := d.run(res); err != nil {
		return nil, err
	}
	for len(res.places) < placeSamples {
		if err := res.samplePlace(ctx, host); err != nil {
			return nil, err
		}
	}
	// Final aggregate with every room still live.
	snap := w.fl.AggregateOnce(w.clk.Now())
	res.snap = snap
	for i, st := range snap.Rooms {
		if st.State != slo.StateReady {
			w.rooms[i].fail("not ready in the final aggregate: %v %v", st.State, st.Reasons)
		}
	}
	for _, r := range w.rooms {
		if n := r.shard.Dropped(); n > 0 {
			r.fail("%d ingest samples dropped", n)
		}
		if r.aud != nil {
			if st := r.aud.Status(); st.Probe.Failures > 0 {
				r.fail("%d infeasible probe rounds (%v)", st.Probe.Failures, st.Probe.Infeasible)
			}
		}
		res.attempts++
		if len(r.failed) > 0 {
			res.fails++
		}
	}
	res.layers = d.layers(res)
	return res, nil
}

// layers merges the goroutines' accumulators once the run has ended.
func (d *driver) layers(res *fleetResult) map[string]float64 {
	acc := d.acc
	bufs := []*spanBuf{&d.spans}
	for _, wk := range d.workers {
		acc.merge(&wk.acc)
		bufs = append(bufs, &wk.spans)
	}
	res.spanBufs = bufs
	m := map[string]float64{}
	f := func(a uint64) float64 { return float64(a) }
	m["telemetry.publish.samples"] = f(acc.publishSamples)
	m["telemetry.publish.ns_per_sample"] = ratio(float64(acc.ns[lyIngest]), f(acc.publishSamples))
	m["fleet.pump.samples"] = f(acc.pumpSamples)
	m["fleet.pump.ns_per_sample"] = ratio(float64(acc.ns[lyPump]), f(acc.pumpSamples))
	m["fleet.pump.allocs_per_call"] = ratio(f(acc.allocs[lyPump]), f(acc.calls[lyPump]))
	m["controller.step.rounds"] = f(acc.cleanRounds + acc.overdrawRounds)
	m["controller.step.clean_ns_per_round"] = ratio(float64(acc.cleanNS), f(acc.cleanRounds))
	m["controller.step.overdraw_ns_per_round"] = ratio(float64(acc.overdrawNS), f(acc.overdrawRounds))
	m["controller.step.overdraw_rounds"] = f(acc.overdrawRounds)
	m["controller.step.allocs_per_round"] = ratio(f(acc.allocs[lyStep]), f(acc.calls[lyStep]))
	m["controller.act.enforced"] = f(acc.enforced)
	m["controller.act.restored"] = f(acc.restored)
	m["rackmgr.state.calls"] = f(acc.stateCalls)
	m["rackmgr.state.ns_per_call"] = ratio(float64(acc.ns[lyState]), f(acc.stateCalls))
	m["fleet.aggregate.ns_per_call"] = ratio(float64(acc.ns[lyAggregate]), f(acc.calls[lyAggregate]))
	m["fleet.aggregate.allocs_per_call"] = ratio(f(acc.allocs[lyAggregate]), f(acc.calls[lyAggregate]))
	m["slo.audit.tick_ns"] = ratio(float64(acc.plainTickNS), f(acc.plainTicks))
	m["slo.audit.probe_tick_ns"] = ratio(float64(acc.probeTickNS), f(acc.probeTicks))
	m["worker.wait_share"] = ratio(float64(acc.idleNS), float64(acc.sysNS)*float64(len(d.workers)))
	m["runtime.gc_cycles"] = float64(acc.gcCycles)
	m["runtime.gc_cpu_share"] = acc.gcShare
	m["bench.gen.ns_per_room_tick"] = ratio(float64(acc.genNS), float64(len(res.ticks)*len(d.w.rooms)))
	var spansDropped int
	for _, b := range bufs {
		spansDropped += b.dropped
	}
	m["bench.spans_dropped"] = float64(spansDropped)
	if d.trace {
		m["bench.span_coverage"] = coverage(bufs...)
	}

	var actions, effective, errs, probes, probeFails, dropped int
	for _, r := range d.w.rooms {
		for _, a := range r.mgr.Log() {
			actions++
			if a.Effective {
				effective++
			}
			if a.Err != nil {
				errs++
			}
		}
		dropped += r.shard.Dropped()
		if r.aud != nil {
			st := r.aud.Status()
			probes += int(st.Probe.Rounds)
			probeFails += int(st.Probe.Failures)
		}
	}
	m["telemetry.publish.dropped"] = float64(dropped)
	m["rackmgr.act.actions"] = float64(actions)
	m["rackmgr.act.effective_ratio"] = ratio(float64(effective), float64(actions))
	m["rackmgr.act.errors"] = float64(errs)
	m["slo.probe.rounds"] = float64(probes)
	m["slo.probe.failures"] = float64(probeFails)
	return m
}

// report turns a fleet run into the workload's named figures.
func (res *fleetResult) report() (*report, map[string]float64) {
	rep := newReport()
	// Throughput of a typical cycle: the median system time at each tick
	// position of the failure cycle, summed over the cycle. Host bursts
	// that hit a few ticks drop out; work that recurs at a position every
	// cycle (telemetry polls, aggregation, failures, probes) stays in.
	cyc := res.world.cfg.Cycle
	var typical float64
	for pos := 0; pos < cyc; pos++ {
		var xs []float64
		for i := pos; i < len(res.ticks); i += cyc {
			xs = append(xs, res.ticks[i])
		}
		typical += median(xs)
	}
	rep.set("room_ticks_per_s", float64(cyc*len(res.rooms))/typical, "1/s", hostClock)
	rep.set("tick_ms_p50", stats.Percentile(res.ticks, 50)*1e3, "ms", hostClock)
	rep.set("tick_ms_p90", stats.Percentile(res.ticks, 90)*1e3, "ms", hostClock)
	rep.set("quiet_tick_ms_p50", stats.Percentile(res.quiet, 50)*1e3, "ms", hostClock)
	rep.set("measured_ticks", float64(len(res.ticks)), "count", exact)
	var detect, shed []float64
	for _, r := range res.rooms {
		for _, o := range r.episodes {
			if o.detect >= 0 {
				detect = append(detect, (time.Duration(o.detect) * tick).Seconds())
			}
			if o.shed >= 0 {
				shed = append(shed, (time.Duration(o.shed) * tick).Seconds())
			}
		}
	}
	if len(shed) > 0 {
		rep.set("shed_s_p50", stats.Percentile(shed, 50), "s", virtualClock)
		rep.set("shed_s_p90", stats.Percentile(shed, 90), "s", virtualClock)
	}
	if len(detect) > 0 {
		rep.set("detect_s_p50", stats.Percentile(detect, 50), "s", virtualClock)
	}
	rep.set("failed_share", ratio(float64(res.fails), float64(res.attempts)), "ratio", exact)
	var setup, place, build, bind []time.Duration
	for _, s := range res.setups {
		setup = append(setup, s.place+s.rooms+s.bind)
		place = append(place, s.place)
		build = append(build, s.rooms)
		bind = append(bind, s.bind)
	}
	rep.set("setup_s", median(seconds(setup)), "s", hostClock)
	rep.set("live_heap_mb", res.heapMB, "MB", hostClock)
	rep.set("place_s_p50", median(seconds(res.places)), "s", hostClock)
	rep.set("stranded_pct_offline", res.world.stranded*100, "%", exact)

	m := res.layers
	m["setup.place_s"] = median(seconds(place))
	m["setup.rooms_s"] = median(seconds(build))
	m["setup.bind_s"] = median(seconds(bind))
	sm := res.world.solver
	m["milp.nodes"] = float64(sm.Nodes.Value())
	// The solver counters are the last set-up's (each set-up registers
	// afresh).
	m["milp.nodes_per_s"] = ratio(float64(sm.Nodes.Value()), place[len(place)-1].Seconds())
	m["lp.simplex_iters"] = float64(sm.SimplexIterations.Value())
	m["milp.node_limit_hits"] = float64(sm.NodeLimitHits.Value())
	m["episode.count"] = float64(len(shed))
	m["episode.detect_s_p50"] = rep.values["detect_s_p50"]
	m["episode.shed_s_p50"] = rep.values["shed_s_p50"]
	m["episode.shed_s_p90"] = rep.values["shed_s_p90"]
	return rep, m
}
