package telemetry

import (
	"sync"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// Sample is one published power measurement.
type Sample struct {
	Device string // e.g. "UPS-1" or "rack-12-03"
	Power  power.Watts
	// Valid is false when the poller could not obtain quorum for the
	// device; consumers must treat the power as unknown.
	Valid bool
	// MeasuredAt is when the poller took the reading; consumers use it
	// for latency accounting and deduplication.
	MeasuredAt time.Time
	// Poller identifies the publishing poller (for dedup across the
	// redundant paths).
	Poller string
	// Seq increases per (Poller, Device).
	Seq uint64
	// Event is the flight-recorder sequence of this sample's
	// sample-publish event (0 when unrecorded); downstream events
	// reference it as their Cause, rooting the causal chain.
	Event uint64
	// PublishedAt is when the sample entered a broker (stamped by the
	// publisher, from its injected clock, just before PublishBatch).
	// Zero when the producer predates stamping. Fixed-size so the stamp
	// survives batch coalescing and gob transport without allocating.
	PublishedAt time.Time
	// DequeuedAt is when a consumer pulled the sample out of its ingest
	// queue (stamped by the consumer, never by the broker). Together
	// with MeasuredAt and PublishedAt it decomposes sample age into the
	// sample/queue stages of the latency-attribution waterfall
	// (DESIGN.md "Latency attribution").
	DequeuedAt time.Time
}

// StampPublished sets PublishedAt=at on every sample in batch that does
// not already carry a publish stamp. Callers stamp immediately before
// PublishBatch; the helper is a plain field loop so it stays on the
// zero-alloc ingest path.
//
//flex:hotpath
func StampPublished(batch []Sample, at time.Time) {
	for i := range batch {
		if batch[i].PublishedAt.IsZero() {
			batch[i].PublishedAt = at
		}
	}
}

// Subscription receives samples for one topic. Drop-oldest semantics keep
// slow subscribers from blocking the pipeline — stale power data is
// worthless to Flex, fresh data is everything.
//
// The queue is a ring of samples preallocated at Subscribe: a publish
// copies its batch in under one lock and a receive copies out, so neither
// side pays a per-sample channel operation. Blocking consumers wait on
// Ready between drains.
type Subscription struct {
	broker *Broker
	topic  string
	ready  chan struct{}

	mu      sync.Mutex
	ring    []Sample
	head    int // index of the oldest buffered sample
	n       int // buffered samples
	dropped int
	closed  bool
}

// Ready returns a channel that receives a signal after a publish buffers
// samples, and is closed by Close. A consumer that finds the queue empty
// waits on it, then drains with RecvBatch until RecvBatch returns less
// than its buffer. Signals coalesce: one pending signal stands for any
// number of publishes.
func (s *Subscription) Ready() <-chan struct{} { return s.ready }

// Dropped reports how many samples were discarded because the subscriber
// lagged.
func (s *Subscription) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// RecvBatch moves up to len(buf) buffered samples, oldest first, into buf
// without blocking and returns how many it copied. A consumer that fell
// behind catches up in one call. A closed subscription drains its
// remaining buffer, then keeps returning 0.
//
//flex:hotpath
func (s *Subscription) RecvBatch(buf []Sample) int {
	s.mu.Lock()
	n := len(buf)
	if s.n < n {
		n = s.n
	}
	k := copy(buf[:n], s.ring[s.head:])
	copy(buf[k:n], s.ring)
	s.head = (s.head + n) % len(s.ring)
	s.n -= n
	s.mu.Unlock()
	return n
}

// push appends batch to the ring, evicting the oldest samples when it
// overflows, and returns how many it evicted. The caller holds s.mu.
//
//flex:hotpath
func (s *Subscription) push(batch []Sample) int {
	size := len(s.ring)
	evicted := 0
	if len(batch) > size {
		// The head of an oversized batch would be evicted by its own tail.
		evicted = s.n + len(batch) - size
		batch = batch[len(batch)-size:]
		s.head, s.n = 0, 0
	} else if over := s.n + len(batch) - size; over > 0 {
		evicted = over
		s.head = (s.head + over) % size
		s.n -= over
	}
	tail := (s.head + s.n) % size
	k := copy(s.ring[tail:], batch)
	copy(s.ring, batch[k:])
	s.n += len(batch)
	return evicted
}

// consume hands every sample sub receives to fn, oldest first, until fn
// returns false, stop closes, or sub closes and its buffer is drained.
func consume(sub *Subscription, stop <-chan struct{}, fn func(Sample) bool) {
	var buf [64]Sample
	for {
		select {
		case _, open := <-sub.ready:
			for {
				k := sub.RecvBatch(buf[:])
				for _, s := range buf[:k] {
					if !fn(s) {
						return
					}
				}
				if k < len(buf) {
					break
				}
			}
			if !open {
				return
			}
		case <-stop:
			return
		}
	}
}

// Close unsubscribes and closes Ready. Samples still buffered stay
// readable through RecvBatch.
func (s *Subscription) Close() {
	s.broker.unsubscribe(s.topic, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ready)
	}
}

// Broker is an in-process topic-based publish/subscribe system. Flex
// deploys two independent brokers; controllers subscribe to both and
// deduplicate, so the loss of one broker is invisible (paper Figure 7).
type Broker struct {
	Name string
	// Metrics, when non-nil, counts samples dropped from slow subscriber
	// buffers. Set it before publishing begins.
	Metrics *Metrics
	// Recorder, when non-nil, receives a sample-drop event whenever a
	// lagging subscriber forces drop-oldest. Set it before publishing
	// begins.
	Recorder *recorder.Recorder

	mu     sync.Mutex
	topics map[string][]*Subscription
	down   bool
}

// NewBroker creates an empty broker.
func NewBroker(name string) *Broker {
	return &Broker{Name: name, topics: make(map[string][]*Subscription)}
}

// Subscribe registers a subscriber for topic whose queue holds buffer
// samples.
func (b *Broker) Subscribe(topic string, buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{
		broker: b,
		topic:  topic,
		ready:  make(chan struct{}, 1),
		ring:   make([]Sample, buffer),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.topics[topic] = append(b.topics[topic], sub)
	return sub
}

func (b *Broker) unsubscribe(topic string, sub *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.topics[topic]
	for i, s := range subs {
		if s == sub {
			b.topics[topic] = append(subs[:i], subs[i+1:]...)
			return
		}
	}
}

// Publish fans one sample out to all of topic's subscribers. It is a
// documented single-element wrapper over PublishBatch, the primary ingest
// path: the sample is wrapped in a stack-backed one-element batch, so the
// wrapper stays allocation-free (the AllocsPerRun tests pin both entry
// points at zero).
//
//flex:hotpath
func (b *Broker) Publish(topic string, s Sample) {
	one := [1]Sample{s}
	b.PublishBatch(topic, one[:])
}

// PublishBatch fans a batch of samples out to all of topic's subscribers
// under a single lock acquisition — the primary ingest path. When a
// subscriber's buffer is full the oldest sample is dropped (stale power
// data is worthless to Flex, fresh data is everything). Publishing on a
// downed broker is a silent no-op (that is the failure the duplicated
// broker masks).
//
// The fan-out runs with b.mu held, iterating the subscriber list in
// place: each subscriber takes the whole batch as one ring copy plus a
// non-blocking Ready signal, so the critical section is bounded by
// len(batch)×subscribers and PublishBatch allocates nothing — it sits on
// the poller and fleet-ingest hot paths. Subscription locks nest under
// the broker lock (b.mu -> sub.mu); nothing acquires them in the reverse
// order.
//
//flex:hotpath
func (b *Broker) PublishBatch(topic string, batch []Sample) {
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return
	}
	dropped := 0
	for _, sub := range b.topics[topic] {
		sub.mu.Lock()
		if sub.closed {
			sub.mu.Unlock()
			continue
		}
		d := sub.push(batch)
		sub.dropped += d
		dropped += d
		select {
		case sub.ready <- struct{}{}:
		default:
		}
		sub.mu.Unlock()
	}
	b.mu.Unlock()
	if b.Metrics != nil {
		b.Metrics.BatchPublishes.Inc()
		if dropped > 0 {
			b.Metrics.DroppedSamples.Add(uint64(dropped))
		}
	}
	// One aggregated drop event per batch, attributed to the newest sample
	// and emitted after every lock is released (eventcheck: no emission
	// under a held mutex).
	if dropped > 0 && b.Recorder != nil {
		last := batch[len(batch)-1]
		b.Recorder.Emit(recorder.Event{
			Type:    recorder.TypeSampleDrop,
			Time:    last.MeasuredAt,
			Actor:   b.Name,
			Subject: last.Device,
			Cause:   last.Event,
			Aux:     int64(dropped),
		})
	}
}

// SetDown injects or clears a broker outage.
func (b *Broker) SetDown(down bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down = down
}

// Topics used by the Flex pipeline.
const (
	TopicUPS  = "power/ups"
	TopicRack = "power/rack"
)
