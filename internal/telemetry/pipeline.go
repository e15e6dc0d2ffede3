package telemetry

import (
	"context"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// PipelineConfig configures a full redundant room pipeline.
type PipelineConfig struct {
	Clock clock.Clock
	// UPSSources supplies ground-truth UPS output power by device name.
	UPSSources map[string]PowerSource
	// RackSources supplies ground-truth rack power by rack name.
	RackSources map[string]PowerSource
	// MechSource is the mechanical (cooling) load observed by the
	// Total−Mech derived meters; nil means a constant 5% of UPS power is
	// unavailable, so a zero source is used.
	MechSource PowerSource
	// UPSInterval is the UPS polling period (default 1.5s, paper §IV-D).
	UPSInterval time.Duration
	// RackInterval is the rack polling period (default 2s, paper §IV-D).
	RackInterval time.Duration
	// Pollers is the number of redundant pollers (default 2).
	Pollers int
	// Brokers is the number of redundant pub/sub systems (default 2).
	Brokers int
	// Seed drives meter noise.
	Seed int64
	// Obs, when non-nil, instruments the pipeline's own behaviour (poll
	// counts, publish lag, drops, consensus disagreements) on the given
	// registry.
	Obs *obs.Registry
	// Recorder, when non-nil, wires the flight recorder through the
	// pipeline: pollers emit sample-publish, brokers emit sample-drop,
	// and consensus meters emit verdict/disagree/quorum-loss events.
	// Views wired via SubscribeAll opt in separately with SetRecorder.
	Recorder *recorder.Recorder
}

// Pipeline is the assembled telemetry system for one room: per-device
// consensus meters, redundant pollers, and duplicated brokers.
type Pipeline struct {
	Clock      clock.Clock
	UPSMeters  map[string]*LogicalMeter
	RackMeters map[string]*LogicalMeter
	PollerSet  []*Poller
	BrokerSet  []*Broker
	// Metrics is non-nil when PipelineConfig.Obs was set.
	Metrics *Metrics

	cancel context.CancelFunc
}

// NewPipeline assembles (but does not start) a pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.UPSInterval <= 0 {
		cfg.UPSInterval = 1500 * time.Millisecond
	}
	if cfg.RackInterval <= 0 {
		cfg.RackInterval = 2 * time.Second
	}
	if cfg.Pollers <= 0 {
		cfg.Pollers = 2
	}
	if cfg.Brokers <= 0 {
		cfg.Brokers = 2
	}
	mech := cfg.MechSource
	if mech == nil {
		mech = func() power.Watts { return 0 }
	}
	p := &Pipeline{
		Clock:      cfg.Clock,
		UPSMeters:  make(map[string]*LogicalMeter),
		RackMeters: make(map[string]*LogicalMeter),
	}
	if cfg.Obs != nil {
		p.Metrics = NewMetrics(cfg.Obs)
	}
	for i := 0; i < cfg.Brokers; i++ {
		b := NewBroker(brokerName(i))
		b.Metrics = p.Metrics
		b.Recorder = cfg.Recorder
		p.BrokerSet = append(p.BrokerSet, b)
	}
	seed := cfg.Seed
	var upsTargets, rackTargets []Target
	for _, name := range sortedKeys(cfg.UPSSources) {
		lm := NewUPSLogicalMeter(name, cfg.UPSSources[name], mech, seed)
		lm.Metrics = p.Metrics
		lm.Recorder = cfg.Recorder
		seed += 10
		p.UPSMeters[name] = lm
		upsTargets = append(upsTargets, Target{Meter: lm, Topic: TopicUPS})
	}
	for _, name := range sortedKeys(cfg.RackSources) {
		// Racks carry a single PDU-fed meter pair (in-rack PSU telemetry
		// and the PDU branch meter) — two meters, quorum 1, so one failure
		// is tolerated but a misreading is not maskable (the controller's
		// safety buffer absorbs that, §IV-D).
		a := NewSimMeter(name+"/psu", cfg.RackSources[name], SimMeterConfig{Noise: 0.01, Seed: seed})
		b := NewSimMeter(name+"/pdu", cfg.RackSources[name], SimMeterConfig{Noise: 0.01, Seed: seed + 1})
		seed += 10
		lm, err := NewLogicalMeter(name, a, b)
		if err != nil {
			panic(err) // static construction; cannot fail
		}
		lm.Quorum = 1
		lm.Metrics = p.Metrics
		lm.Recorder = cfg.Recorder
		p.RackMeters[name] = lm
		rackTargets = append(rackTargets, Target{Meter: lm, Topic: TopicRack})
	}
	pubs := make([]SamplePublisher, len(p.BrokerSet))
	for i, b := range p.BrokerSet {
		pubs[i] = b
	}
	for i := 0; i < cfg.Pollers; i++ {
		ups := NewPoller(pollerName(i, "ups"), cfg.Clock, cfg.UPSInterval, pubs, upsTargets)
		rack := NewPoller(pollerName(i, "rack"), cfg.Clock, cfg.RackInterval, pubs, rackTargets)
		ups.Metrics = p.Metrics
		rack.Metrics = p.Metrics
		ups.Recorder = cfg.Recorder
		rack.Recorder = cfg.Recorder
		p.PollerSet = append(p.PollerSet, ups, rack)
	}
	return p
}

// Start launches every poller; Stop (or ctx cancellation) halts them.
func (p *Pipeline) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	for _, poller := range p.PollerSet {
		go poller.Run(ctx)
	}
}

// Stop halts the pollers started by Start.
func (p *Pipeline) Stop() {
	if p.cancel != nil {
		p.cancel()
	}
}

// PollOnce runs a single synchronous poll round on every poller —
// deterministic simulation and tests drive the pipeline this way.
func (p *Pipeline) PollOnce() {
	for _, poller := range p.PollerSet {
		poller.PollOnce()
	}
}

// SubscribeAll subscribes to a topic on every broker and merges the
// streams, deduplicated, into view. The returned cancel function closes
// the subscriptions.
func (p *Pipeline) SubscribeAll(topic string, view *LatestPower) (cancel func()) {
	dedupe := NewDeduper()
	var subs []*Subscription
	done := make(chan struct{})
	for _, b := range p.BrokerSet {
		sub := b.Subscribe(topic, 1024)
		subs = append(subs, sub)
		go consume(sub, done, func(s Sample) bool {
			if !dedupe.Fresh(s) {
				if p.Metrics != nil {
					p.Metrics.DedupeHits.Inc()
				}
				return true
			}
			// Stamp the dequeue instant before the view installs the
			// sample: PublishedAt→DequeuedAt is the queue-wait stage.
			now := p.Clock.Now()
			s.DequeuedAt = now
			view.Update(s)
			if p.Metrics != nil {
				p.Metrics.PublishLag.ObserveDuration(now.Sub(s.MeasuredAt))
			}
			return true
		})
	}
	return func() {
		close(done)
		for _, s := range subs {
			s.Close()
		}
	}
}

func brokerName(i int) string { return "pubsub-" + string(rune('A'+i)) }

func pollerName(i int, kind string) string {
	return "poller-" + string(rune('A'+i)) + "-" + kind
}

func sortedKeys(m map[string]PowerSource) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; tiny maps
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
