package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/placement"
	"flex/internal/placement/online"
	"flex/internal/stats"
	"flex/internal/workload"
)

// placementConfig sizes the placement workload: Flex-Offline-Short on
// Shuffles shuffled orders of the paper room's trace, interleaved with
// online admit/remove churn for Seconds over a half-loaded room, then one
// deterministic online placement of the §V-C trace. Offline solves and
// churn run on Workers workers, each with its own admitter (a room of its
// own), in rounds that end at a barrier. Every worker solves the same
// shuffle in an offline round, and each shuffle has Repeats rounds.
//
// Host time is read as each input's best of the run: an arrival's
// decision is made many times from the same state and a shuffle is
// solved Repeats × Workers times, and the fastest of these is the
// input's cost.
// On a shared host a neighbour slows in-cache work like this by up to
// 1.7x for seconds at a time, which moved whole-run medians by a third
// between runs; the best of a run moves only when the program does.
type placementConfig struct {
	Seconds  float64
	Seed     int64
	Trace    bool
	Workers  int
	Setups   int
	Shuffles int
	Repeats  int
	// Stream is the least number of distinct deployments the arrival
	// stream cycles through.
	Stream int
	// Window is how many admissions one worker makes in a churn round;
	// one throughput sample and one state validation cover a round.
	Window int
	// tamper, when non-nil, edits the first offline placement before it
	// is validated; the negative test uses it.
	tamper func(*placement.Placement)
}

func placementWorkload() placementConfig {
	return placementConfig{Setups: 21, Shuffles: 4, Repeats: 6, Stream: 20000, Window: 4096}
}

// placementResult is what one placement run reports.
type placementResult struct {
	rep      *report
	layers   map[string]float64
	attempts int
	fails    int
	failures []string
	spanBufs []*spanBuf
}

func (p *placementResult) check(op string, err error) {
	p.attempts++
	if err != nil {
		p.fails++
		if len(p.failures) < 4 {
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", op, err))
		}
	}
}

// admitter is one set-up: the paper room with the base load admitted.
type admitter struct {
	room *placement.Room
	adm  *online.Admitter
}

func setupAdmitter(baseLoad []workload.Deployment) (*admitter, error) {
	room := placement.PaperRoom()
	// The admitter's own seed draws its scenario stream; it is fixed
	// because the stream's make-up sets the cost of scoring a contested
	// admission, and a seeded stream made that cost differ between seeds.
	adm, err := online.NewAdmitter(room, online.Config{Seed: 1, ResolveEvery: -1, Metrics: online.NewMetrics(obs.NewRegistry())})
	if err != nil {
		return nil, err
	}
	for _, d := range baseLoad {
		adm.Admit(d)
	}
	return &admitter{room: room, adm: adm}, nil
}

// placer is one placement worker: its admitter, where it is in the
// arrival stream, and what it measured.
type placer struct {
	id   int
	a    *admitter
	step int
	// admitNS and removeNS are per-call host times; accepted counts
	// admitted arrivals. bestAdmit[k] and bestRemove[k] are the fastest
	// admission and removal of stream arrival k (0 before the first).
	admitNS, removeNS     []float64
	accepted              int
	bestAdmit, bestRemove []int64
	spans                 spanBuf
	err                   error
}

// placementRun is one run's shared inputs and its workers.
type placementRun struct {
	ctx      context.Context
	cfg      placementConfig
	host     clock.Clock
	origin   time.Time
	baseLoad []workload.Deployment
	stream   []workload.Deployment
	shuffled [][]workload.Deployment
	sm       *milp.Metrics
	placers  []*placer
	// places[j] and placed[j] are solve j's time and placement, written
	// by the worker that made it (see shuffleOf).
	places []time.Duration
	placed []*placement.Placement
}

// round runs f on every worker at once and returns when all are done.
func (r *placementRun) round(f func(*placer)) {
	var wg sync.WaitGroup
	for _, p := range r.placers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(p)
		}()
	}
	wg.Wait()
}

func (r *placementRun) addSpan(p *placer, ly layer, tick int, t0, t1 time.Time) {
	if r.cfg.Trace {
		p.spans.add(span{tick: int32(tick), room: -1, layer: ly, worker: uint8(p.id), start: t0.Sub(r.origin).Nanoseconds(), end: t1.Sub(r.origin).Nanoseconds()})
	}
}

// churn makes one round's admissions on p: every arrival is decided
// against the same base load and, when admitted, removed again, so a
// decision's cost depends on the arrival alone and not on the path the
// churn took.
func (r *placementRun) churn(p *placer, tick int) {
	for end := p.step + r.cfg.Window; p.step < end; p.step++ {
		k := p.step % len(r.stream)
		d := r.stream[k]
		t0 := r.host.Now()
		_, ok := p.a.adm.Admit(d)
		t1 := r.host.Now()
		ns := t1.Sub(t0).Nanoseconds()
		p.admitNS = append(p.admitNS, float64(ns))
		p.bestAdmit[k] = best(p.bestAdmit[k], ns)
		r.addSpan(p, lyAdmit, tick, t0, t1)
		if ok {
			p.accepted++
			p.a.adm.Remove(d.ID)
			t2 := r.host.Now()
			ns := t2.Sub(t1).Nanoseconds()
			p.removeNS = append(p.removeNS, float64(ns))
			p.bestRemove[k] = best(p.bestRemove[k], ns)
			r.addSpan(p, lyRemove, tick, t1, t2)
		}
	}
}

// best is the smaller of two times, where 0 means none yet.
func best(a, b int64) int64 {
	if a == 0 || b < a {
		return b
	}
	return a
}

// shuffleOf is the shuffle solve j places: offline round j/W solves one
// shuffle on every worker, and the rounds go through the shuffles in turn.
func (r *placementRun) shuffleOf(j int) int {
	return j / len(r.placers) % len(r.shuffled)
}

// placeOffline makes solve j, Flex-Offline-Short on shuffle shuffleOf(j),
// on p.
func (r *placementRun) placeOffline(p *placer, j int) {
	// One solver worker per placement: the deterministic rounds give the
	// same placement for any count, and the workers already keep every
	// CPU busy with a solve of their own.
	pol := placement.FlexOfflineShort()
	pol.SolverMetrics, pol.Workers = r.sm, 1
	t0 := r.host.Now()
	pl, err := pol.Place(r.ctx, placement.PaperRoom(), r.shuffled[r.shuffleOf(j)])
	t1 := r.host.Now()
	if err != nil {
		p.err = err
		return
	}
	r.addSpan(p, lyPlace, -1, t0, t1)
	r.places[j], r.placed[j] = t1.Sub(t0), pl
}

func runPlacement(ctx context.Context, cfg placementConfig, host clock.Clock) (*placementResult, error) {
	res := &placementResult{rep: newReport(), layers: map[string]float64{}}
	rep, m := res.rep, res.layers
	rng := rand.New(rand.NewSource(cfg.Seed))
	nw := max(cfg.Workers, 1)

	// Inputs: the paper room's trace, shuffled as the paper does. The
	// offline shuffles are fixed so stranded power compares exactly
	// across commits.
	paper := placement.PaperRoom()
	base, err := workload.GenerateTrace(workload.DefaultTraceConfig(paper.Topo.ProvisionedPower()), rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	r := &placementRun{ctx: ctx, cfg: cfg, host: host, sm: milp.NewMetrics(obs.NewRegistry())}
	r.shuffled = make([][]workload.Deployment, cfg.Shuffles)
	for i := range r.shuffled {
		r.shuffled[i] = workload.Shuffle(base, rand.New(rand.NewSource(int64(i+1))))
	}
	solves := cfg.Shuffles * max(cfg.Repeats, 1) * nw
	r.places, r.placed = make([]time.Duration, solves), make([]*placement.Placement, solves)
	// Churn: the first half of the paper trace stays committed as the
	// base load; the arrival stream is many fresh seeded traces, so one
	// run sees a broad mix of deployments rather than a few repeating
	// ones. (The base load is fixed: how full the room is decides how many
	// admissions are contested, and a seeded base load made throughput
	// differ twofold between seeds.) Worker w starts w/nw of the way into
	// the stream.
	r.baseLoad = base[:len(base)/2]
	for len(r.stream) < cfg.Stream {
		tr, err := workload.GenerateTrace(workload.DefaultTraceConfig(paper.Topo.ProvisionedPower()), rng)
		if err != nil {
			return nil, err
		}
		for _, d := range tr {
			d.ID = len(r.baseLoad) + len(r.stream)
			r.stream = append(r.stream, d)
		}
	}
	all := append(append([]workload.Deployment(nil), r.baseLoad...), r.stream...)
	r.placers = make([]*placer, nw)
	for i := range r.placers {
		r.placers[i] = &placer{id: i, step: i * len(r.stream) / nw,
			bestAdmit: make([]int64, len(r.stream)), bestRemove: make([]int64, len(r.stream))}
	}

	// Set-up: every worker builds its own admitter at once.
	var setups []time.Duration
	for i := 0; i < max(cfg.Setups, 1); i++ {
		for _, p := range r.placers {
			p.a = nil
		}
		runtime.GC()
		t0 := host.Now()
		r.round(func(p *placer) { p.a, p.err = setupAdmitter(r.baseLoad) })
		setups = append(setups, host.Now().Sub(t0))
		for _, p := range r.placers {
			if p.err != nil {
				return nil, p.err
			}
		}
	}

	r.origin = host.Now()
	if cfg.Trace {
		for _, p := range r.placers {
			p.spans = newSpanBuf(spanLimit)
		}
	}
	var tickSpans spanBuf
	if cfg.Trace {
		tickSpans = newSpanBuf(spanLimit)
	}

	// offlineRound makes the next nw solves, one per worker, all of one
	// shuffle: a round's solves then take equally long, so no worker
	// finishes alone. The rounds are spread over the churn (and the heap
	// collected after each), so a shuffle's repeats fall seconds apart;
	// their spans (tick -1) have no parent.
	nPlaced := 0
	var stranded []float64
	offlineRound := func() error {
		first := nPlaced
		r.round(func(p *placer) {
			if j := first + p.id; j < solves {
				r.placeOffline(p, j)
			}
		})
		for _, p := range r.placers {
			if p.err != nil {
				return p.err
			}
		}
		for ; nPlaced < min(first+nw, solves); nPlaced++ {
			pl := r.placed[nPlaced]
			if nPlaced == 0 && cfg.tamper != nil {
				cfg.tamper(pl)
			}
			// Eq. 5 is only defined for a valid placement.
			err := pl.Validate()
			res.check(fmt.Sprintf("offline placement %d", nPlaced), err)
			if err == nil {
				stranded = append(stranded, pl.StrandedFraction())
			}
		}
		runtime.GC()
		return nil
	}

	// Online churn rounds, with the offline rounds interleaved.
	var rounds []float64
	var allocs uint64
	var ar allocReader
	start := host.Now()
	for win := 0; ; win++ {
		// Room for the round's timings, so it does not allocate on the
		// driver's behalf.
		for _, p := range r.placers {
			p.admitNS = slices.Grow(p.admitNS, cfg.Window)
			p.removeNS = slices.Grow(p.removeNS, cfg.Window)
			p.spans.reserve(2 * cfg.Window)
		}
		var a0 uint64
		if cfg.Trace {
			a0 = ar.read()
		}
		w0 := host.Now()
		r.round(func(p *placer) { r.churn(p, win) })
		w1 := host.Now()
		if cfg.Trace {
			allocs += ar.read() - a0
			tickSpans.add(span{tick: int32(win), room: -1, layer: lyTick, start: w0.Sub(r.origin).Nanoseconds(), end: w1.Sub(r.origin).Nanoseconds()})
		}
		rounds = append(rounds, float64(nw*cfg.Window)/w1.Sub(w0).Seconds())
		// Every worker's committed state must stay safe after every round.
		for _, p := range r.placers {
			res.check(fmt.Sprintf("worker %d online state after %d admissions", p.id, p.step), (&placement.Placement{
				Room: p.a.room, Deployments: all, Assignments: p.a.adm.Assignments(),
			}).Validate())
		}
		elapsed := host.Now().Sub(start).Seconds()
		if nPlaced < solves && elapsed >= float64(nPlaced)*cfg.Seconds/float64(solves) {
			if err := offlineRound(); err != nil {
				return nil, err
			}
		}
		if elapsed >= cfg.Seconds {
			break
		}
	}
	for nPlaced < solves {
		if err := offlineRound(); err != nil {
			return nil, err
		}
	}
	// Quality: one deterministic online placement of the §V-C trace.
	emuRoom := placement.EmulationRoom()
	emuTrace, err := emulationTrace(emuRoom)
	if err != nil {
		return nil, err
	}
	on, err := online.Online{Config: online.Config{Seed: 42, SyncResolve: true, ResolveEvery: 8, ResolveNodes: 200, ResolveBudget: 5 * time.Second}}.Place(ctx, emuRoom, emuTrace)
	if err != nil {
		return nil, err
	}
	res.check("online placement of the §V-C trace", on.Validate())

	var admitNS, removeNS []float64
	var accepted int
	for _, p := range r.placers {
		admitNS, removeNS = append(admitNS, p.admitNS...), append(removeNS, p.removeNS...)
		accepted += p.accepted
		p.admitNS, p.removeNS = nil, nil
	}
	// Each arrival's best admission (and removal, when admitted) over
	// every worker that decided it.
	var bestAdmitNS []float64
	var bestDecisionNS float64
	for k := range r.stream {
		var adm, rem int64
		for _, p := range r.placers {
			if p.bestAdmit[k] > 0 {
				adm = best(adm, p.bestAdmit[k])
			}
			if p.bestRemove[k] > 0 {
				rem = best(rem, p.bestRemove[k])
			}
		}
		if adm > 0 {
			bestAdmitNS = append(bestAdmitNS, float64(adm))
			bestDecisionNS += float64(adm + rem)
		}
	}
	rep.set("admit_per_s", median(rounds), "1/s", hostClock)
	rep.set("admit_us_p50", stats.Percentile(admitNS, 50)/1e3, "us", hostClock)
	rep.set("admit_us_p90", stats.Percentile(admitNS, 90)/1e3, "us", hostClock)
	rep.set("admit_us_p99", stats.Percentile(admitNS, 99)/1e3, "us", hostClock)
	rep.set("best_admit_per_s", ratio(float64(nw)*float64(len(bestAdmitNS)), bestDecisionNS/1e9), "1/s", hostClock)
	rep.set("best_admit_us_p50", stats.Percentile(bestAdmitNS, 50)/1e3, "us", hostClock)
	rep.set("best_admit_us_p90", stats.Percentile(bestAdmitNS, 90)/1e3, "us", hostClock)
	rep.set("admissions", float64(len(admitNS)), "count", exact)
	rep.set("arrivals", float64(len(bestAdmitNS)), "count", exact)
	m["online.admit.ns_per_call"] = stats.Mean(admitNS)
	m["online.remove.ns_per_call"] = stats.Mean(removeNS)
	m["online.admit.allocs_per_call"] = ratio(float64(allocs), float64(len(admitNS)))
	m["online.admit.accept_ratio"] = ratio(float64(accepted), float64(len(admitNS)))

	// The heap figure is the admitters': drop the driver's per-decision
	// timings, whose size grows with the run, before measuring.
	admitNS, removeNS = nil, nil
	runtime.GC()
	heap := liveHeapMB()
	runtime.KeepAlive(r.placers)
	rep.set("failed_share", ratio(float64(res.fails), float64(res.attempts)), "ratio", exact)
	rep.set("setup_s", median(seconds(setups)), "s", hostClock)
	rep.set("live_heap_mb", heap, "MB", hostClock)
	// Each shuffle's best solve.
	bestPlace := make([]time.Duration, cfg.Shuffles)
	for j, d := range r.places {
		i := r.shuffleOf(j)
		bestPlace[i] = time.Duration(best(int64(bestPlace[i]), int64(d)))
	}
	rep.set("place_s_p50", median(seconds(bestPlace)), "s", hostClock)
	rep.set("stranded_pct_offline", stats.Mean(stranded)*100, "%", exact)
	rep.set("stranded_pct_online", on.StrandedFraction()*100, "%", exact)

	m["online.admit.us_p99"] = rep.values["admit_us_p99"]
	m["online.stranded_pct"] = rep.values["stranded_pct_online"]
	m["milp.nodes"] = float64(r.sm.Nodes.Value())
	m["milp.nodes_per_s"] = ratio(float64(r.sm.Nodes.Value()), sum(seconds(r.places)))
	m["lp.simplex_iters"] = float64(r.sm.SimplexIterations.Value())
	m["milp.node_limit_hits"] = float64(r.sm.NodeLimitHits.Value())
	m["setup.rooms_s"] = median(seconds(setups))
	res.spanBufs = append(res.spanBufs, &tickSpans)
	for _, p := range r.placers {
		res.spanBufs = append(res.spanBufs, &p.spans)
		m["bench.spans_dropped"] += float64(p.spans.dropped)
	}
	if cfg.Trace {
		m["bench.span_coverage"] = coverage(res.spanBufs...)
	}
	return res, nil
}

// emulationTrace is the §V-C demand trace every fleet room is placed from.
func emulationTrace(room *placement.Room) ([]workload.Deployment, error) {
	tcfg := workload.DefaultTraceConfig(room.Topo.ProvisionedPower())
	tcfg.WorkloadsPerCategory = 1
	tcfg.FlexPowerMin, tcfg.FlexPowerMax = 0.845, 0.855
	return workload.GenerateTrace(tcfg, rand.New(rand.NewSource(traceSeed)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
