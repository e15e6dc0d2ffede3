package controller

import (
	"context"
	"sort"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
)

// Config assembles one Flex-Online controller instance. Flex runs several
// instances in a multi-primary configuration on separate fault domains;
// because actions are idempotent, the instances need no coordination
// (paper §IV-D).
type Config struct {
	Name  string
	Clock clock.Clock
	Topo  *power.Topology
	Racks []ManagedRack
	// UPSView/RackView are the telemetry snapshots the controller reads
	// (fed by telemetry.Pipeline.SubscribeAll).
	UPSView  *telemetry.LatestPower
	RackView *telemetry.LatestPower
	// RackEstimator, when non-nil, supplies the rack power estimates for
	// planning instead of the raw RackView snapshot (paper §IV-D: "an
	// estimate based on time series models can be used"). The controller
	// uses a conservative lower bound (mean − deviation) so recovered
	// power is never overestimated.
	RackEstimator *telemetry.EWMAEstimator
	// Actuator enforces actions.
	Actuator *rackmgr.Manager
	// Scenario supplies impact functions.
	Scenario impact.Scenario
	// Buffer is the safety margin below UPS capacity (default 1% of the
	// smallest UPS capacity).
	Buffer power.Watts
	// Interval is the evaluation period (default 500ms — the controller
	// must fit detection plus action well inside the 10s budget).
	Interval time.Duration
	// PlanBudget bounds one Algorithm 1 planning pass (default half of
	// power.FlexLatencyBudget, leaving the other half for actuation). A
	// pass that exceeds it is aborted and its partial plan enforced — a
	// truncated plan still sheds real power inside the tolerance window.
	PlanBudget time.Duration
	// InactiveThreshold is the capacity fraction below which a UPS is
	// considered out of service (default 0.02).
	InactiveThreshold float64
	// Metrics, when non-nil, records step outcomes and the shed-latency
	// histograms. Multi-primary instances of one room may share an
	// instance; the counters aggregate.
	Metrics *Metrics
	// Tracer, when non-nil, records a detect→plan→act trace for every
	// round that observes an overdraw. When the triggering UPS sample
	// carries ingest stamps, the trace opens at the sample's MeasuredAt
	// with sample/queue/view spans ahead of detect — the full
	// meter-to-actuation waterfall.
	Tracer *obs.Tracer
	// Stages, when non-nil, receives per-stage critical-path latencies
	// (sample/queue/view/detect/plan/act) for every completed overdraw
	// round, each observation carrying an exemplar joining it to the
	// episode, trace, and detect event. Fleet controllers share one
	// instance per fleet so the histograms aggregate.
	Stages *obs.StageMetrics
	// Recorder, when non-nil, logs the causal event chain of every
	// overdraw round — detect (caused by the UPS sample-arrive event it
	// read), plan start/commit/abort, each planned action, and the
	// actuations they dispatch — under a per-episode ID allocated from
	// the recorder. Traces started by Tracer carry the same episode ID,
	// so /traces and /events are joinable.
	Recorder *recorder.Recorder
}

// StepOutcome describes one evaluation round.
type StepOutcome struct {
	// Overdraw is true when some UPS exceeded limit−buffer.
	Overdraw bool
	// Planned actions this round. Nil when there was no overdraw — and
	// also on overdraw rounds that defer on stale telemetry or whose Plan
	// call fails, so Overdraw && Planned == nil does occur.
	Planned []PlannedAction
	// Enforced counts successfully enforced actions.
	Enforced int
	// EnforceErrors counts actuation failures.
	EnforceErrors int
	// Insufficient is true when shaveable power ran out before safety.
	Insufficient bool
	// PlanAborted is true when the planning pass hit Config.PlanBudget (or
	// the step's ctx) and the enforced plan is the truncated prefix.
	PlanAborted bool
	// Restored counts racks restored during recovery.
	Restored int
}

// Controller is one Flex-Online primary.
type Controller struct {
	cfg Config

	mu            sync.Mutex
	acted         map[string]PlannedAction // rack → action we enforced
	steps         int
	lastEnforceAt time.Time
	// overdrawSince is when the current overdraw episode was first seen
	// (zero when no episode is open); episodeActed records whether this
	// instance enforced anything during it. Together they drive the
	// first-action and shed-latency histograms.
	overdrawSince time.Time
	episodeActed  bool
	// episode is the flight-recorder episode ID of the open overdraw
	// episode (0 when none is open or no recorder is wired).
	episode uint64
}

// DefaultInactiveThreshold is the capacity fraction below which a UPS is
// considered out of service when Config.InactiveThreshold is zero.
const DefaultInactiveThreshold = 0.02

// DefaultBuffer is the safety margin used when Config.Buffer is zero: 1%
// of the smallest UPS capacity. Exported so episode-log headers and
// replay reconstruct the same margin the controller ran with.
func DefaultBuffer(topo *power.Topology) power.Watts {
	min := topo.UPSes[0].Capacity
	for _, u := range topo.UPSes {
		if u.Capacity < min {
			min = u.Capacity
		}
	}
	return power.Watts(0.01 * float64(min))
}

// New creates a controller.
func New(cfg Config) *Controller {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.InactiveThreshold == 0 {
		cfg.InactiveThreshold = DefaultInactiveThreshold
	}
	if cfg.PlanBudget <= 0 {
		cfg.PlanBudget = power.FlexLatencyBudget / 2
	}
	if cfg.Buffer == 0 {
		cfg.Buffer = DefaultBuffer(cfg.Topo)
	}
	return &Controller{cfg: cfg, acted: make(map[string]PlannedAction)}
}

// snapshotUPS builds the UPS power vector from the view; UPSes without a
// reading are assumed at full capacity (the safe direction: missing data
// must trigger shaving, not mask an overload — §IV-C notes unreliable
// telemetry leads to conservative action). It also returns the newest
// measurement time, which gates re-enforcement, and the flight-recorder
// sample-arrive sequence per UPS (0 when unrecorded), which roots the
// detect event's causal chain.
func (c *Controller) snapshotUPS() ([]power.Watts, time.Time, []uint64) {
	out := make([]power.Watts, len(c.cfg.Topo.UPSes))
	events := make([]uint64, len(c.cfg.Topo.UPSes))
	var newest time.Time
	for u := range c.cfg.Topo.UPSes {
		if v, at, ev, ok := c.cfg.UPSView.GetEvent(c.cfg.Topo.UPSes[u].Name); ok {
			out[u] = v
			events[u] = ev
			if at.After(newest) {
				newest = at
			}
		} else {
			out[u] = c.cfg.Topo.UPSes[u].Capacity
		}
	}
	return out, newest, events
}

// Step runs one evaluation round with no external cancellation point:
// StepContext(context.Background()). The planning budget still applies.
func (c *Controller) Step() StepOutcome {
	//flexlint:ignore ctxflow deprecated ctx-less shorthand; live callers use StepContext
	return c.StepContext(context.Background())
}

// StepContext runs one evaluation round: read snapshots, detect overdraw,
// plan and enforce corrective actions; or, when the failed supply has
// returned and headroom allows, restore previously acted racks. Planning
// runs under ctx bounded by Config.PlanBudget; an aborted pass enforces
// whatever partial plan it produced.
func (c *Controller) StepContext(ctx context.Context) (out StepOutcome) {
	defer func() { c.cfg.Metrics.recordStep(&out) }()

	var stepStart time.Time
	if c.cfg.Tracer != nil || c.cfg.Stages != nil {
		stepStart = c.cfg.Clock.Now()
	}

	c.mu.Lock()
	c.steps++
	c.mu.Unlock()

	ups, measuredAt, upsEvents := c.snapshotUPS()
	inactive := InferInactiveUPSes(c.cfg.Topo, ups, c.cfg.InactiveThreshold)

	over := false
	worst := -1
	var worstExcess power.Watts
	for u := range c.cfg.Topo.UPSes {
		if inactive[power.UPSID(u)] {
			continue
		}
		if excess := ups[u] - (c.cfg.Topo.UPSes[u].Capacity - c.cfg.Buffer); excess > 0 {
			over = true
			if worst < 0 || excess > worstExcess {
				worst, worstExcess = u, excess
			}
		}
	}

	rec := c.cfg.Recorder
	if over {
		out.Overdraw = true
		// Only an overdraw round plans, so only it copies the rack view
		// and the acted set; a clean round builds neither map.
		var rackPower map[string]power.Watts
		if c.cfg.RackEstimator != nil {
			rackPower = c.cfg.RackEstimator.BoundSnapshot(-1)
		} else {
			rackPower = c.cfg.RackView.Snapshot()
		}
		now := c.cfg.Clock.Now()
		c.mu.Lock()
		acted := make(map[string]bool, len(c.acted))
		for id := range c.acted {
			acted[id] = true
		}
		newEpisode := c.overdrawSince.IsZero()
		if newEpisode {
			c.overdrawSince = now
			c.episodeActed = false
		}
		episode := c.episode
		c.mu.Unlock()
		if newEpisode {
			c.cfg.Metrics.incEpisode()
			episode = rec.NextEpisode() // 0 when unrecorded
			c.mu.Lock()
			c.episode = episode
			c.mu.Unlock()
		}
		var detectSeq uint64
		if rec != nil {
			detectSeq = rec.Emit(recorder.Event{
				Type:    recorder.TypeOverdrawDetect,
				Time:    now,
				Actor:   c.cfg.Name,
				Subject: c.cfg.Topo.UPSes[worst].Name,
				Value:   float64(ups[worst]),
				Score:   float64(c.cfg.Topo.UPSes[worst].Capacity),
				Cause:   upsEvents[worst],
				Episode: episode,
			})
		}
		// The ingest stamps of the sample that triggered detection open
		// the waterfall: how old the reading already was when this round
		// looked at it, split into sample/queue/view stages.
		stamps, _ := c.cfg.UPSView.GetStamps(c.cfg.Topo.UPSes[worst].Name)
		var tr *obs.Trace
		if c.cfg.Tracer != nil {
			traceStart := stepStart
			if !stamps.MeasuredAt.IsZero() {
				traceStart = stamps.MeasuredAt
			}
			tr = c.cfg.Tracer.Start("flex-online/"+c.cfg.Name, traceStart)
			tr.SetEpisode(episode)
			tr.SetRoot(detectSeq)
			if !stamps.MeasuredAt.IsZero() && !stamps.PublishedAt.IsZero() {
				tr.Span("sample", stamps.MeasuredAt, stamps.PublishedAt)
			}
			if !stamps.PublishedAt.IsZero() && !stamps.DequeuedAt.IsZero() {
				tr.Span("queue", stamps.PublishedAt, stamps.DequeuedAt)
			}
			if !stamps.DequeuedAt.IsZero() && !stamps.DequeuedAt.After(stepStart) {
				tr.Span("view", stamps.DequeuedAt, stepStart)
			}
			tr.Span("detect", stepStart, now)
		}
		// Do not pile further actions onto a snapshot that predates our
		// last enforcement: the measurements do not yet reflect the power
		// already shed, and re-planning on them overcorrects far beyond
		// the paper's benign idempotent-duplicate case. Wait for fresh
		// telemetry (≤1.5s, §IV-D) instead — still well inside the
		// 10-second budget.
		c.mu.Lock()
		stale := len(c.acted) > 0 && !measuredAt.After(c.lastEnforceAt)
		c.mu.Unlock()
		if stale {
			c.cfg.Metrics.incStaleSkip()
			if rec != nil {
				rec.Emit(recorder.Event{
					Type:    recorder.TypeStaleSkip,
					Time:    now,
					Actor:   c.cfg.Name,
					Cause:   detectSeq,
					Episode: episode,
				})
			}
			if tr != nil {
				tr.SetNote("stale-skip")
				tr.Finish(now)
			}
			return out
		}
		var planSeq uint64
		if rec != nil {
			planSeq = rec.Emit(recorder.Event{
				Type:    recorder.TypePlanStart,
				Time:    now,
				Actor:   c.cfg.Name,
				Cause:   detectSeq,
				Episode: episode,
				Aux:     int64(len(acted)),
			})
		}
		planCtx, cancelPlan := context.WithTimeout(ctx, c.cfg.PlanBudget)
		actions, insufficient, err := PlanContext(planCtx, PlanInput{
			Topo:      c.cfg.Topo,
			Racks:     c.cfg.Racks,
			UPSPower:  ups,
			RackPower: rackPower,
			Inactive:  inactive,
			Scenario:  c.cfg.Scenario,
			Buffer:    c.cfg.Buffer,
			Acted:     acted,
		})
		aborted := err != nil && planCtx.Err() != nil
		cancelPlan()
		var planEnd time.Time
		if tr != nil || rec != nil || c.cfg.Stages != nil {
			planEnd = c.cfg.Clock.Now()
		}
		if tr != nil {
			tr.Span("plan", now, planEnd)
		}
		if aborted {
			// Budget (or the caller's ctx) expired mid-plan: keep the
			// partial plan — enforcing what Algorithm 1 got to beats
			// enforcing nothing inside the tolerance window.
			c.cfg.Metrics.incPlanAbort()
			out.PlanAborted = true
			if tr != nil {
				tr.SetNote("plan-abort")
			}
		} else if err != nil {
			c.cfg.Metrics.incPlanError()
			if rec != nil {
				rec.Emit(recorder.Event{
					Type:    recorder.TypePlanError,
					Time:    planEnd,
					Actor:   c.cfg.Name,
					Cause:   planSeq,
					Episode: episode,
					Detail:  err.Error(),
				})
			}
			if tr != nil {
				tr.SetNote("plan-error")
				tr.Finish(planEnd)
			}
			return out
		}
		out.Planned = actions
		out.Insufficient = insufficient
		var plannedSeqs []uint64
		if rec != nil {
			plannedSeqs = make([]uint64, len(actions))
			var total float64
			for i, a := range actions {
				total += float64(a.Recovered)
				plannedSeqs[i] = rec.Emit(recorder.Event{
					Type:    recorder.TypeActionPlanned,
					Time:    planEnd,
					Actor:   c.cfg.Name,
					Subject: a.Rack,
					Value:   float64(a.Recovered),
					Score:   a.Impact,
					Aux:     int64(a.Kind),
					Detail:  a.Workload,
					Cause:   planSeq,
					Episode: episode,
				})
			}
			commit := recorder.Event{
				Type:    recorder.TypePlanCommit,
				Time:    planEnd,
				Actor:   c.cfg.Name,
				Cause:   planSeq,
				Episode: episode,
				Aux:     int64(len(actions)),
				Value:   total,
			}
			if aborted {
				commit.Type = recorder.TypePlanAbort
			} else if insufficient {
				commit.Detail = "insufficient"
			}
			rec.Emit(commit)
		}
		for i, a := range actions {
			var err error
			op := rackmgr.Op{Actor: c.cfg.Name, Episode: episode}
			if plannedSeqs != nil {
				op.Cause = plannedSeqs[i]
			}
			switch a.Kind {
			case Shutdown:
				err = c.cfg.Actuator.ShutdownOp(a.Rack, op)
			case Throttle:
				err = c.cfg.Actuator.ThrottleOp(a.Rack, a.CapTarget, op)
			}
			if err != nil {
				out.EnforceErrors++
				continue
			}
			out.Enforced++
			enforcedAt := c.cfg.Clock.Now()
			c.mu.Lock()
			c.acted[a.Rack] = a
			c.lastEnforceAt = enforcedAt
			first := !c.episodeActed
			c.episodeActed = true
			since := c.overdrawSince
			c.mu.Unlock()
			if first {
				c.cfg.Metrics.observeFirstAction(enforcedAt.Sub(since))
			}
		}
		if tr != nil || c.cfg.Stages != nil {
			actEnd := c.cfg.Clock.Now()
			if tr != nil {
				tr.Span("act", planEnd, actEnd)
				if out.Insufficient {
					tr.SetNote("insufficient")
				}
				tr.Finish(actEnd)
			}
			ex := obs.Exemplar{Episode: episode, Seq: detectSeq, At: actEnd}
			if tr != nil {
				ex.Trace = tr.Seq
			}
			c.observeStages(stamps, stepStart, now, planEnd, actEnd, ex)
		}
		return out
	}

	// No overdraw: close any open episode and record how long detection to
	// the final enforcement took — the latency that must fit the 10s UPS
	// overload tolerance.
	c.mu.Lock()
	since := c.overdrawSince
	episodeActed := c.episodeActed
	last := c.lastEnforceAt
	episode := c.episode
	c.overdrawSince = time.Time{}
	c.episodeActed = false
	c.episode = 0
	c.mu.Unlock()
	shed := !since.IsZero() && episodeActed && !last.Before(since)
	if shed {
		c.cfg.Metrics.observeShed(last.Sub(since))
	}
	if rec != nil && !since.IsZero() {
		e := recorder.Event{
			Type:    recorder.TypeEpisodeClose,
			Time:    c.cfg.Clock.Now(),
			Actor:   c.cfg.Name,
			Episode: episode,
		}
		if shed {
			e.Value = last.Sub(since).Seconds()
		}
		rec.Emit(e)
	}

	// Recovery: when no UPS is inactive, restore as many acted racks as
	// the measured headroom safely allows — all of them after the failed
	// supply returns and load normalizes (paper Figure 13, stages F–G),
	// or a partial subset when the power draw merely "falls
	// significantly" during a long maintenance window (§IV-D: "some power
	// caps may be lifted or servers restored to reduce the impact").
	c.mu.Lock()
	n := len(c.acted)
	c.mu.Unlock()
	if n == 0 || len(inactive) > 0 {
		return out
	}
	c.mu.Lock()
	restoreSet := make([]PlannedAction, 0, len(c.acted))
	for _, a := range c.acted {
		restoreSet = append(restoreSet, a)
	}
	c.mu.Unlock()
	// Restore cheapest-impact actions first: throttled racks before shut
	// down ones (lifting a cap is instantaneous and risk-free; a restart
	// adds inrush and boot time), then by recovered power ascending so
	// marginal headroom frees the most racks.
	sort.Slice(restoreSet, func(i, j int) bool {
		if (restoreSet[i].Kind == Throttle) != (restoreSet[j].Kind == Throttle) {
			return restoreSet[i].Kind == Throttle
		}
		if restoreSet[i].Recovered != restoreSet[j].Recovered {
			return restoreSet[i].Recovered < restoreSet[j].Recovered
		}
		return restoreSet[i].Rack < restoreSet[j].Rack
	})
	proj := append([]power.Watts(nil), ups...)
	for _, a := range restoreSet {
		rk := c.rackByID(a.Rack)
		if rk == nil {
			continue
		}
		// Would returning this rack's power keep every UPS safe?
		cand := append([]power.Watts(nil), proj...)
		applyRecovery(c.cfg.Topo, cand, nil, rk.Pair, -a.Recovered)
		safe := true
		for u := range c.cfg.Topo.UPSes {
			if cand[u] > c.cfg.Topo.UPSes[u].Capacity-c.cfg.Buffer {
				safe = false
				break
			}
		}
		if !safe {
			continue
		}
		if err := c.cfg.Actuator.RestoreOp(a.Rack, rackmgr.Op{Actor: c.cfg.Name}); err != nil {
			out.EnforceErrors++
			continue
		}
		proj = cand
		out.Restored++
		c.mu.Lock()
		delete(c.acted, a.Rack)
		c.mu.Unlock()
	}
	return out
}

// observeStages folds one completed overdraw round into the per-stage
// latency histograms (Config.Stages). Stamp-derived stages are skipped
// when the triggering sample predates stamping; compute stages are
// always observed. Durations are clamped at zero — async ingest can
// install a sample mid-step, making the view stage marginally negative.
func (c *Controller) observeStages(st telemetry.Stamps, stepStart, detect, planEnd, actEnd time.Time, ex obs.Exemplar) {
	sm := c.cfg.Stages
	if sm == nil {
		return
	}
	if !st.MeasuredAt.IsZero() && !st.PublishedAt.IsZero() {
		sm.ObserveExemplar(obs.StageSample, nonNeg(st.PublishedAt.Sub(st.MeasuredAt)), ex)
	}
	if !st.PublishedAt.IsZero() && !st.DequeuedAt.IsZero() {
		sm.ObserveExemplar(obs.StageQueue, nonNeg(st.DequeuedAt.Sub(st.PublishedAt)), ex)
	}
	if !st.DequeuedAt.IsZero() {
		sm.ObserveExemplar(obs.StageView, nonNeg(stepStart.Sub(st.DequeuedAt)), ex)
	}
	sm.ObserveExemplar(obs.StageDetect, nonNeg(detect.Sub(stepStart)), ex)
	sm.ObserveExemplar(obs.StagePlan, nonNeg(planEnd.Sub(detect)), ex)
	sm.ObserveExemplar(obs.StageAct, nonNeg(actEnd.Sub(planEnd)), ex)
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

func (c *Controller) rackByID(id string) *ManagedRack {
	for i := range c.cfg.Racks {
		if c.cfg.Racks[i].ID == id {
			return &c.cfg.Racks[i]
		}
	}
	return nil
}

// Run evaluates repeatedly until ctx is cancelled. Each round runs as
// StepContext(ctx), so cancellation also aborts an in-flight planning
// pass.
func (c *Controller) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		c.StepContext(ctx)
		select {
		case <-ctx.Done():
			return
		case <-c.cfg.Clock.After(c.cfg.Interval):
		}
	}
}

// OpenEpisode reports the controller's open overdraw episode: the
// flight-recorder episode ID (0 when unrecorded), when the overdraw was
// first observed, and whether an episode is open at all. The SLO
// auditor reads this to attribute shed-budget burn to the episode its
// breach events must join.
func (c *Controller) OpenEpisode() (id uint64, since time.Time, open bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.episode, c.overdrawSince, !c.overdrawSince.IsZero()
}

// CommittedActions returns a copy of the actions this controller has
// enforced and not yet restored, plus the time of the last enforcement.
// The auditor uses the recovered watts to compute per-UPS headroom under
// the committed plan while telemetry still predates the enforcement.
func (c *Controller) CommittedActions() ([]PlannedAction, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PlannedAction, 0, len(c.acted))
	for _, a := range c.acted {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rack < out[j].Rack })
	return out, c.lastEnforceAt
}

// ActedRacks returns the racks this controller has acted on and not yet
// restored.
func (c *Controller) ActedRacks() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.acted))
	for id := range c.acted {
		out = append(out, id)
	}
	return out
}

// Steps reports how many evaluation rounds have run.
func (c *Controller) Steps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}
