package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/obs/slo"
	"flex/internal/power"
	"flex/internal/rackmgr"
)

// phase is one system phase the workers run over their rooms.
type phase int

const (
	phPump phase = iota
	phStep
	phState
	phAudit
)

// phaseLayer maps a worker phase to its layer.
var phaseLayer = [...]layer{phPump: lyPump, phStep: lyStep, phState: lyState, phAudit: lyAudit}

// driver steps one world tick by tick. Generator phases (demand, UPS
// truth, safety checks) run on the calling goroutine; the per-room
// system phases run on workers that each own a fixed contiguous slice of
// rooms, with a barrier after every phase.
type driver struct {
	ctx     context.Context
	w       *world
	host    clock.Clock
	trace   bool
	rng     *rand.Rand
	offsets []int
	workers []*worker
	phaseWG sync.WaitGroup
	exitWG  sync.WaitGroup
	acc     accum // main goroutine: ingest, aggregate, generator
	spans   spanBuf
	origin  time.Time
	allocs  allocReader
	tick    int
	// prevProbe is each room's probe-round count after its last audit
	// tick (traced runs split audit ticks on it).
	prevProbe []uint64
}

// worker owns rooms[lo:hi] for the whole run.
type worker struct {
	id    int
	d     *driver
	rooms []*room
	start chan phase
	busy  time.Duration // of the last phase; read after the barrier
	acc   accum
	spans spanBuf
}

func newDriver(ctx context.Context, w *world, nw int, host clock.Clock, trace bool) *driver {
	d := &driver{ctx: ctx, w: w, host: host, trace: trace, rng: rand.New(rand.NewSource(w.cfg.Seed))}
	// Failure offsets inside a cycle: a seeded shuffle of the stagger
	// slots, dealt round-robin over the rooms.
	stagger := max(w.cfg.Stagger, 1)
	perm := rand.New(rand.NewSource(w.cfg.Seed ^ 0x5eed)).Perm(len(w.rooms))
	d.offsets = make([]int, len(w.rooms))
	for i, r := range perm {
		d.offsets[r] = i % stagger
	}
	d.prevProbe = make([]uint64, len(w.rooms))
	d.origin = host.Now()
	if trace {
		d.spans = newSpanBuf(spanLimit)
	}
	per := (len(w.rooms) + nw - 1) / nw
	for i := 0; i < nw; i++ {
		lo, hi := i*per, min((i+1)*per, len(w.rooms))
		wk := &worker{id: i, d: d, rooms: w.rooms[lo:hi], start: make(chan phase)}
		if trace {
			wk.spans = newSpanBuf(spanLimit)
		}
		d.workers = append(d.workers, wk)
		d.exitWG.Add(1)
		go wk.loop()
	}
	return d
}

// stop ends every worker and waits until each has exited.
func (d *driver) stop() {
	for _, wk := range d.workers {
		close(wk.start)
	}
	d.workers = nil
	d.exitWG.Wait()
}

func (wk *worker) loop() {
	defer wk.d.exitWG.Done()
	for ph := range wk.start {
		wk.runPhase(ph)
		wk.d.phaseWG.Done()
	}
}

func (wk *worker) runPhase(ph phase) {
	d := wk.d
	t0 := d.host.Now()
	prev := t0
	ly := phaseLayer[ph]
	for _, r := range wk.rooms {
		var overdraw bool
		switch ph {
		case phPump:
			wk.acc.pumpSamples += uint64(r.shard.Pump())
		case phStep:
			var restored int
			overdraw, r.enforced, restored = r.shard.StepContext(d.ctx)
			wk.acc.enforced += uint64(r.enforced)
			wk.acc.restored += uint64(restored)
		case phState:
			for j := range d.w.racks {
				st, c, err := r.mgr.State(d.w.racks[j].id)
				if err != nil {
					r.fail("rack state: %v", err)
				}
				r.state[j], r.caps[j] = st, c
			}
			wk.acc.stateCalls += uint64(len(d.w.racks))
		case phAudit:
			r.aud.Tick(d.ctx, d.w.clk.Now())
		}
		if !d.trace {
			continue
		}
		now := d.host.Now()
		ns := now.Sub(prev).Nanoseconds()
		wk.spans.add(span{tick: int32(d.tick), room: int32(r.idx), layer: ly, worker: uint8(wk.id), start: prev.Sub(d.origin).Nanoseconds(), end: now.Sub(d.origin).Nanoseconds()})
		wk.acc.ns[ly] += ns
		wk.acc.calls[ly]++
		switch ph {
		case phStep:
			if overdraw {
				wk.acc.overdrawNS += ns
				wk.acc.overdrawRounds++
			} else {
				wk.acc.cleanNS += ns
				wk.acc.cleanRounds++
			}
		case phAudit:
			// Probe rounds are read outside the span: Status is the
			// auditor's /slo view, not part of its tick.
			rounds := r.aud.Status().Probe.Rounds
			if rounds > d.prevProbe[r.idx] {
				wk.acc.probeTickNS += ns
				wk.acc.probeTicks++
			} else {
				wk.acc.plainTickNS += ns
				wk.acc.plainTicks++
			}
			d.prevProbe[r.idx] = rounds
			now = d.host.Now()
		}
		prev = now
	}
	wk.busy = d.host.Now().Sub(t0)
}

// runPhase runs ph on every worker and waits for all of them.
func (d *driver) runPhase(ph phase) {
	var a0 uint64
	if d.trace {
		a0 = d.allocs.read()
	}
	t0 := d.host.Now()
	d.phaseWG.Add(len(d.workers))
	for _, wk := range d.workers {
		wk.start <- ph
	}
	d.phaseWG.Wait()
	wall := d.host.Now().Sub(t0)
	if d.trace {
		d.acc.allocs[phaseLayer[ph]] += d.allocs.read() - a0
		for _, wk := range d.workers {
			d.acc.idleNS += (wall - wk.busy).Nanoseconds()
		}
	}
}

// cycleStart schedules every failing room's outage for cycle c.
func (d *driver) cycleStart(c, first int) {
	cfg := d.w.cfg
	if cfg.FailEvery <= 0 {
		return
	}
	nUPS := len(d.w.topo.UPSes)
	for _, r := range d.w.rooms {
		if r.idx%cfg.FailEvery != 0 {
			continue
		}
		o := &outage{ups: (r.idx + c) % nUPS, fail: first + d.offsets[r.idx], recover: -1, detect: -1, shed: -1}
		if cfg.Outage > 0 {
			o.recover = o.fail + cfg.Outage
		}
		r.cur = o
	}
}

// cycleEnd closes the cycle's outages: a room whose UPS has returned
// must have every rack back on.
func (d *driver) cycleEnd() {
	for _, r := range d.w.rooms {
		o := r.cur
		if o == nil {
			continue
		}
		if o.recover >= 0 {
			for j, st := range r.state {
				if st != rackmgr.On {
					r.fail("rack %s still %v after UPS %d returned", d.w.racks[j].id, st, o.ups)
					break
				}
			}
		}
		if o.shed < 0 {
			r.fail("UPS %d failure at tick %d never shed", o.ups, o.fail)
		}
		r.episodes = append(r.episodes, *o)
		r.cur = nil
	}
}

// gen runs the generator's pre-ingest half of a tick: outage injection,
// demand dynamics and the telemetry batches due this tick.
func (d *driver) gen(t int) (upsDue, rackDue bool) {
	w := d.w
	cfg := w.cfg
	for _, r := range w.rooms {
		if o := r.cur; o != nil {
			if t == o.fail {
				r.down[o.ups] = true
			}
			if t == o.recover {
				r.down[o.ups] = false
			}
		}
	}
	now := time.Duration(t) * tick
	ramp := time.Duration(cfg.Ramp) * tick
	target := utilization
	if now < ramp {
		target = utilization * (0.5 + 0.5*now.Seconds()/ramp.Seconds())
	}
	dt := tick.Seconds()
	const theta, sigma = 0.30, 0.015
	for _, r := range w.rooms {
		for j := range w.racks {
			catTarget := target / utilization * w.racks[j].target
			if catTarget > 1 {
				catTarget = 1
			}
			// Same association as emu.RunFleet's `demand += ...`, so the
			// two produce bit-identical demand.
			x := r.demand[j] + (theta*(catTarget-r.demand[j])*dt + sigma*d.rng.NormFloat64()*dt)
			r.demand[j] = min(max(x, 0.1), 1)
		}
	}
	wall := w.clk.Now()
	upsDue, rackDue = t%upsEvery == 0, t%rackEvery == 0
	for _, r := range w.rooms {
		if upsDue {
			r.computeTruth(w)
			for u := range r.upsB {
				s := &r.upsB[u]
				s.Power, s.MeasuredAt, s.PublishedAt = power.Watts(r.truth[u]), wall, wall
			}
		}
		if rackDue {
			for j := range r.rackB {
				s := &r.rackB[j]
				s.Power, s.MeasuredAt, s.PublishedAt = power.Watts(r.rackPower(w, j)), wall, wall
			}
		}
	}
	return upsDue, rackDue
}

// ingest publishes the due batches into every room's shard.
func (d *driver) ingest(upsDue, rackDue bool) {
	if !upsDue && !rackDue {
		return
	}
	prev := d.host.Now()
	for _, r := range d.w.rooms {
		n := 0
		if upsDue && !r.withholdUPS {
			r.shard.IngestUPS(r.upsB)
			n += len(r.upsB)
		}
		if rackDue {
			r.shard.IngestRacks(r.rackB)
			n += len(r.rackB)
		}
		d.acc.publishSamples += uint64(n)
		if d.trace {
			now := d.host.Now()
			d.spans.add(span{tick: int32(d.tick), room: int32(r.idx), layer: lyIngest, start: prev.Sub(d.origin).Nanoseconds(), end: now.Sub(d.origin).Nanoseconds()})
			d.acc.ns[lyIngest] += now.Sub(prev).Nanoseconds()
			d.acc.calls[lyIngest]++
			prev = now
		}
	}
}

// check runs the generator's post-step half: trip-curve safety in every
// room, detect and shed points of open outages, and auditor health.
func (d *driver) check(t int) {
	w := d.w
	curve := power.EndOfLifeTripCurve
	for _, r := range w.rooms {
		r.computeTruth(w)
		for u := range w.topo.UPSes {
			if r.down[u] {
				r.over[u] = 0
				continue
			}
			capW := float64(w.topo.UPSes[u].Capacity)
			if r.truth[u] > capW {
				r.over[u] += tick
				if r.over[u] > curve.Tolerance(r.truth[u]/capW) {
					r.fail("UPS %d overloaded %.2fx past its trip-curve tolerance at tick %d", u, r.truth[u]/capW, t)
				}
			} else {
				r.over[u] = 0
			}
		}
		if o := r.cur; o != nil && t >= o.fail {
			if o.detect < 0 && r.enforced > 0 {
				o.detect = t - o.fail
			}
			if o.shed < 0 && t > o.fail {
				under := true
				for u := range w.topo.UPSes {
					if !r.down[u] && r.truth[u] > float64(w.topo.UPSes[u].Capacity) {
						under = false
						break
					}
				}
				if under {
					o.shed = t - o.fail
				} else if time.Duration(t-o.fail)*tick > shedBudget && !o.late {
					o.late = true
					r.fail("UPS %d failure at tick %d not shed within %v", o.ups, o.fail, shedBudget)
				}
			}
		}
		if r.aud != nil && r.aud.Health().State == slo.StateUnsafe {
			r.fail("auditor reports unsafe at tick %d", t)
		}
	}
}

// oneTick runs one full tick and returns its system-phase and generator
// host time.
func (d *driver) oneTick(t int) (sys, gen time.Duration) {
	d.tick = t
	w := d.w
	g0 := d.host.Now()
	upsDue, rackDue := d.gen(t)
	g1 := d.host.Now()
	var a0 uint64
	if d.trace {
		// Room for this tick's spans, so the timed batches below do not
		// allocate on the driver's behalf.
		d.spans.reserve(len(w.rooms) + 2)
		for _, wk := range d.workers {
			wk.spans.reserve(4 * len(wk.rooms))
		}
		a0 = d.allocs.read()
	}
	d.ingest(upsDue, rackDue)
	if d.trace {
		d.acc.allocs[lyIngest] += d.allocs.read() - a0
	}
	d.runPhase(phPump)
	d.runPhase(phStep)
	d.runPhase(phState)
	if w.cfg.Auditor {
		d.runPhase(phAudit)
	}
	if t%aggEvery == 0 {
		if d.trace {
			a0 = d.allocs.read()
		}
		a := d.host.Now()
		w.fl.AggregateOnce(w.clk.Now())
		if d.trace {
			b := d.host.Now()
			d.acc.allocs[lyAggregate] += d.allocs.read() - a0
			d.spans.add(span{tick: int32(t), room: -1, layer: lyAggregate, start: a.Sub(d.origin).Nanoseconds(), end: b.Sub(d.origin).Nanoseconds()})
			d.acc.ns[lyAggregate] += b.Sub(a).Nanoseconds()
			d.acc.calls[lyAggregate]++
		}
	}
	s3 := d.host.Now()
	d.check(t)
	w.clk.Advance(tick)
	g2 := d.host.Now()
	sys = s3.Sub(g1)
	if d.trace {
		d.spans.add(span{tick: int32(t), room: -1, layer: lyTick, start: g1.Sub(d.origin).Nanoseconds(), end: s3.Sub(d.origin).Nanoseconds()})
		d.acc.sysNS += sys.Nanoseconds()
	}
	return sys, g1.Sub(g0) + g2.Sub(s3)
}

// run drives the warm-up, then whole cycles until the budget is spent.
func (d *driver) run(res *fleetResult) error {
	cfg := d.w.cfg
	t := 0
	for ; t < cfg.Warm; t++ {
		d.oneTick(t)
	}
	// Per-layer figures cover the measured cycles only.
	d.acc = accum{}
	d.spans.reset()
	for _, wk := range d.workers {
		wk.acc = accum{}
		wk.spans.reset()
	}
	var gc0 gcSample
	gc0.read()
	start := d.host.Now()
	var genTotal time.Duration
	for c := 0; ; c++ {
		first := t
		d.cycleStart(c, first)
		for ; t < first+cfg.Cycle; t++ {
			sys, gen := d.oneTick(t)
			res.ticks = append(res.ticks, sys.Seconds())
			if t%upsEvery != 0 && t%rackEvery != 0 {
				res.quiet = append(res.quiet, sys.Seconds())
			}
			genTotal += gen
		}
		d.cycleEnd()
		if len(res.places) < placeSamples {
			if err := res.samplePlace(d.ctx, d.host); err != nil {
				return err
			}
		}
		if c == 0 {
			// The heap is read after one full cycle rather than at the
			// end: the actuator's audit log grows with every action, so an
			// end-of-run figure would grow with throughput.
			runtime.GC()
			res.heapMB = liveHeapMB()
		}
		if cfg.Seconds > 0 && d.host.Now().Sub(start).Seconds() >= cfg.Seconds {
			break
		}
		if cfg.Seconds <= 0 && c+1 >= cfg.Cycles {
			break
		}
	}
	var gc1 gcSample
	gc1.read()
	d.acc.gcCycles = uint64(gc1.cycles - gc0.cycles)
	if cpu := gc1.totalCPU - gc0.totalCPU; cpu > 0 {
		d.acc.gcShare = (gc1.gcCPU - gc0.gcCPU) / cpu
	}
	d.acc.genNS = genTotal.Nanoseconds()
	return nil
}
