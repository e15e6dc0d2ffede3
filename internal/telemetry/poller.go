package telemetry

import (
	"context"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// Target is one device a poller polls: its logical (consensus) meter and
// the topic its samples are published on.
type Target struct {
	Meter *LogicalMeter
	Topic string
}

// Poller periodically reads a set of logical meters and publishes the
// samples to every configured broker. Flex runs two or more pollers on
// separate fault domains, each publishing the same devices; subscribers
// deduplicate (paper Figure 7).
type Poller struct {
	Name     string
	Interval time.Duration
	Clock    clock.Clock
	Brokers  []SamplePublisher
	Targets  []Target
	// Metrics, when non-nil, receives poll/publish/invalid-read counts.
	// Set it before Run (the pipeline wires it from PipelineConfig.Obs).
	Metrics *Metrics
	// Recorder, when non-nil, emits a sample-publish event per reading;
	// the event's sequence rides on Sample.Event so downstream consumers
	// can cite it as their Cause. Set it before Run.
	Recorder *recorder.Recorder

	mu    sync.Mutex
	seq   map[string]uint64
	down  bool
	polls int
	// batch is the reusable per-round publish buffer; PollOnce flushes it
	// to every broker with one PublishBatch per topic run, so steady-state
	// rounds reuse the same backing array.
	batch []Sample
}

// NewPoller constructs a poller. Interval defaults to 1.5 seconds (the
// paper's UPS telemetry frequency) when zero.
func NewPoller(name string, clk clock.Clock, interval time.Duration, brokers []SamplePublisher, targets []Target) *Poller {
	if interval <= 0 {
		interval = 1500 * time.Millisecond
	}
	return &Poller{
		Name:     name,
		Interval: interval,
		Clock:    clk,
		Brokers:  brokers,
		Targets:  targets,
		seq:      make(map[string]uint64),
	}
}

// PollOnce reads every target once and publishes the samples, batched:
// consecutive targets on the same topic accumulate into one buffer that
// is handed to every broker with a single PublishBatch call — one lock
// acquisition per broker per topic run instead of one per device. It is
// the unit of work Run repeats; tests and the emulator drive it directly
// for deterministic schedules.
func (p *Poller) PollOnce() {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return
	}
	p.polls++
	p.mu.Unlock()
	if p.Metrics != nil {
		p.Metrics.Polls.Inc()
	}
	now := p.Clock.Now()
	p.batch = p.batch[:0]
	topic := ""
	flush := func() {
		if len(p.batch) == 0 {
			return
		}
		// Stamp the batch at the moment it enters the brokers; the gap
		// back to MeasuredAt is the "sample" stage of the latency
		// waterfall (meter read + consensus + batching).
		StampPublished(p.batch, p.Clock.Now())
		for _, b := range p.Brokers {
			b.PublishBatch(topic, p.batch)
			if p.Metrics != nil {
				p.Metrics.SamplesPublished.Add(uint64(len(p.batch)))
			}
		}
		p.batch = p.batch[:0]
	}
	for _, t := range p.Targets {
		if t.Topic != topic {
			flush()
			topic = t.Topic
		}
		v, err := t.Meter.Read(now)
		if p.Metrics != nil && err != nil {
			p.Metrics.InvalidReads.Inc()
		}
		s := Sample{
			Device:     t.Meter.Device,
			Power:      v,
			Valid:      err == nil,
			MeasuredAt: now,
			Poller:     p.Name,
			Seq:        p.nextSeq(t.Meter.Device),
		}
		if p.Recorder != nil {
			valid := int64(0)
			if s.Valid {
				valid = 1
			}
			s.Event = p.Recorder.Emit(recorder.Event{
				Type:    recorder.TypeSamplePublish,
				Time:    now,
				Actor:   p.Name,
				Subject: s.Device,
				Value:   float64(s.Power),
				Aux:     valid,
			})
		}
		p.batch = append(p.batch, s)
	}
	flush()
}

func (p *Poller) nextSeq(device string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq[device]++
	return p.seq[device]
}

// Run polls until ctx is cancelled, sleeping Interval between rounds on
// the poller's clock.
func (p *Poller) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		p.PollOnce()
		select {
		case <-ctx.Done():
			return
		case <-p.Clock.After(p.Interval):
		}
	}
}

// SetDown injects or clears a poller outage.
func (p *Poller) SetDown(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
}

// Polls reports how many poll rounds have executed.
func (p *Poller) Polls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polls
}

// Deduper collapses the duplicate samples that arrive through the
// redundant poller × broker paths: a sample is fresh when it is newer than
// the last accepted measurement for its device (measurement time, then
// sequence as a tiebreaker per poller).
type Deduper struct {
	mu   sync.Mutex
	last map[string]time.Time
}

// NewDeduper returns an empty deduper.
func NewDeduper() *Deduper { return &Deduper{last: make(map[string]time.Time)} }

// Fresh reports whether s carries new information and records it if so.
func (d *Deduper) Fresh(s Sample) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.last[s.Device]; ok && !s.MeasuredAt.After(t) {
		return false
	}
	d.last[s.Device] = s.MeasuredAt
	return true
}

// Stamps is the per-device ingest timeline retained by LatestPower: the
// birth timestamps of the sample currently installed in the view. Zero
// fields mean the corresponding stage was never stamped (e.g. a producer
// that predates stamping, or a view fed directly without a broker).
type Stamps struct {
	MeasuredAt  time.Time
	PublishedAt time.Time
	DequeuedAt  time.Time
}

// LatestPower is a thread-safe view of the most recent valid power per
// device, assembled from deduplicated samples — the controller's power
// snapshot (Algorithm 1 lines 2–3).
//
// Each device gets a dense slot the first time it reports; its reading,
// stamps and arrival event live in parallel slices at that slot, so an
// update is one name lookup plus slice stores and readers never rebuild
// a map unless they ask for a Snapshot.
type LatestPower struct {
	mu     sync.Mutex
	slot   map[string]int32
	power  []power.Watts
	stamps []Stamps // stamps[i].MeasuredAt orders updates to device i
	event  []uint64
	rec    *recorder.Recorder
	role   string
}

// NewLatestPower returns an empty view.
func NewLatestPower() *LatestPower {
	return &LatestPower{slot: make(map[string]int32)}
}

// SetRecorder makes every accepted sample emit a sample-arrive event
// under the given role ("ups-view", "rack-view"); the event sequence is
// retained per device so readers (GetEvent) can cite the arrival as the
// Cause of decisions made from it. Set it before updates begin.
func (l *LatestPower) SetRecorder(rec *recorder.Recorder, role string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec = rec
	l.role = role
}

// Update records a valid sample (invalid samples are ignored). A sample
// no newer than the device's installed one is dropped.
func (l *LatestPower) Update(s Sample) {
	if !s.Valid {
		return
	}
	l.mu.Lock()
	i, ok := l.slot[s.Device]
	if !ok {
		i = int32(len(l.power))
		l.slot[s.Device] = i
		l.power = append(l.power, 0)
		l.stamps = append(l.stamps, Stamps{})
		l.event = append(l.event, 0)
	} else if !s.MeasuredAt.After(l.stamps[i].MeasuredAt) {
		l.mu.Unlock()
		return
	}
	l.power[i] = s.Power
	l.stamps[i] = Stamps{
		MeasuredAt:  s.MeasuredAt,
		PublishedAt: s.PublishedAt,
		DequeuedAt:  s.DequeuedAt,
	}
	rec, role := l.rec, l.role
	l.mu.Unlock()
	if rec == nil {
		return
	}
	// Emit outside the mutex (eventcheck), then bind the arrival seq to
	// the device — unless an even newer sample won the race meanwhile.
	seq := rec.Emit(recorder.Event{
		Type:    recorder.TypeSampleArrive,
		Time:    s.MeasuredAt,
		Actor:   role,
		Subject: s.Device,
		Value:   float64(s.Power),
		Cause:   s.Event,
	})
	l.mu.Lock()
	if l.stamps[i].MeasuredAt.Equal(s.MeasuredAt) {
		l.event[i] = seq
	}
	l.mu.Unlock()
}

// Get returns the last power for device and whether one exists.
func (l *LatestPower) Get(device string) (power.Watts, time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.slot[device]
	if !ok {
		return 0, time.Time{}, false
	}
	return l.power[i], l.stamps[i].MeasuredAt, true
}

// GetEvent is Get plus the flight-recorder sequence of the sample-arrive
// event that installed the reading (0 when the view is unrecorded).
func (l *LatestPower) GetEvent(device string) (power.Watts, time.Time, uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.slot[device]
	if !ok {
		return 0, time.Time{}, 0, false
	}
	return l.power[i], l.stamps[i].MeasuredAt, l.event[i], true
}

// GetStamps returns the ingest timeline of device's installed sample —
// the birth stamps the latency-attribution waterfall opens with.
// ok=false when the device has never reported.
func (l *LatestPower) GetStamps(device string) (Stamps, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.slot[device]
	if !ok {
		return Stamps{}, false
	}
	return l.stamps[i], true
}

// Snapshot copies the current view.
func (l *LatestPower) Snapshot() map[string]power.Watts {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]power.Watts, len(l.slot))
	for name, i := range l.slot {
		out[name] = l.power[i]
	}
	return out
}

// Age returns how stale device's last sample is at time now; ok=false when
// the device has never reported.
func (l *LatestPower) Age(device string, now time.Time) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.slot[device]
	if !ok {
		return 0, false
	}
	return now.Sub(l.stamps[i].MeasuredAt), true
}

// Oldest returns the staleness of the view's least-fresh device at time
// now — the quantity the telemetry-freshness SLO watches: one stuck
// device is one stuck failover estimate. ok=false when the view is
// empty.
func (l *LatestPower) Oldest(now time.Time) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var worst time.Duration
	ok := false
	for i := range l.stamps {
		if age := now.Sub(l.stamps[i].MeasuredAt); !ok || age > worst {
			worst, ok = age, true
		}
	}
	return worst, ok
}

// Count reports how many devices have reported at least once.
func (l *LatestPower) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slot)
}
