package telemetry

import (
	"math/rand"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
)

// tryRecv takes the oldest buffered sample off sub without blocking.
func tryRecv(sub *Subscription) (Sample, bool) {
	var one [1]Sample
	if sub.RecvBatch(one[:]) == 0 {
		return Sample{}, false
	}
	return one[0], true
}

// recvOne is tryRecv that fails the test when nothing is buffered.
func recvOne(t *testing.T, sub *Subscription) Sample {
	t.Helper()
	s, ok := tryRecv(sub)
	if !ok {
		t.Fatal("no sample buffered")
	}
	return s
}

// chanQueue is the drop-oldest channel queue the ring replaced, kept as
// the reference the ring's contents and drop counts must match.
type chanQueue struct {
	c       chan Sample
	dropped int
}

func (q *chanQueue) publish(batch []Sample) {
	for _, s := range batch {
		for {
			select {
			case q.c <- s:
			default:
				select {
				case <-q.c:
					q.dropped++
				default:
				}
				continue
			}
			break
		}
	}
}

func (q *chanQueue) recv(buf []Sample) int {
	n := 0
	for n < len(buf) {
		select {
		case s := <-q.c:
			buf[n] = s
			n++
		default:
			return n
		}
	}
	return n
}

// TestRingMatchesChannelQueue drives seeded random publish/receive
// sequences whose batch sizes mostly do not divide the capacity (so the
// ring wraps at every offset, and some batches exceed the capacity) and
// checks every receive, the per-subscriber drop count and the broker-wide
// drop metric against the channel reference.
func TestRingMatchesChannelQueue(t *testing.T) {
	for _, capacity := range []int{1, 3, 7, 16} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := NewBroker("A")
			b.Metrics = NewMetrics(obs.NewRegistry())
			sub := b.Subscribe("t", capacity)
			ref := &chanQueue{c: make(chan Sample, capacity)}
			seq := uint64(0)
			got := make([]Sample, 2*capacity+3)
			want := make([]Sample, len(got))
			for op := 0; op < 400; op++ {
				if rng.Intn(3) > 0 {
					batch := make([]Sample, 1+rng.Intn(2*capacity+2))
					for i := range batch {
						seq++
						batch[i] = Sample{Device: "d", Seq: seq}
					}
					b.PublishBatch("t", batch)
					ref.publish(batch)
				} else {
					k := rng.Intn(len(got) + 1)
					n, m := sub.RecvBatch(got[:k]), ref.recv(want[:k])
					if n != m {
						t.Fatalf("cap %d seed %d op %d: RecvBatch(%d) = %d, channel gave %d", capacity, seed, op, k, n, m)
					}
					for i := 0; i < n; i++ {
						if got[i].Seq != want[i].Seq {
							t.Fatalf("cap %d seed %d op %d: sample %d seq %d, channel gave %d", capacity, seed, op, i, got[i].Seq, want[i].Seq)
						}
					}
				}
				if sub.Dropped() != ref.dropped {
					t.Fatalf("cap %d seed %d op %d: Dropped = %d, channel dropped %d", capacity, seed, op, sub.Dropped(), ref.dropped)
				}
				if m := b.Metrics.DroppedSamples.Value(); m != uint64(ref.dropped) {
					t.Fatalf("cap %d seed %d op %d: flex_telemetry_dropped_samples_total = %d, channel dropped %d", capacity, seed, op, m, ref.dropped)
				}
			}
		}
	}
}

// TestRingEvictsOldestFirst pins the eviction order on a wrapped ring: a
// batch that overflows evicts the oldest buffered samples, and a batch
// larger than the ring keeps only its own newest samples.
func TestRingEvictsOldestFirst(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 4)
	mk := func(seqs ...uint64) []Sample {
		out := make([]Sample, len(seqs))
		for i, s := range seqs {
			out[i] = Sample{Device: "d", Seq: s}
		}
		return out
	}
	b.PublishBatch("t", mk(1, 2, 3))
	recvOne(t, sub) // head moves off slot 0, so the next pushes wrap
	b.PublishBatch("t", mk(4, 5, 6))
	if sub.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", sub.Dropped())
	}
	buf := make([]Sample, 8)
	if n := sub.RecvBatch(buf); n != 4 || buf[0].Seq != 3 || buf[3].Seq != 6 {
		t.Fatalf("RecvBatch = %d samples %v, want seqs 3..6", n, buf[:n])
	}
	b.PublishBatch("t", mk(7, 8))
	b.PublishBatch("t", mk(9, 10, 11, 12, 13, 14))
	if sub.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want 5 (1 + both old samples + 2 of the oversized batch)", sub.Dropped())
	}
	if n := sub.RecvBatch(buf); n != 4 || buf[0].Seq != 11 || buf[3].Seq != 14 {
		t.Fatalf("RecvBatch = %d samples %v, want seqs 11..14", n, buf[:n])
	}
}

// TestSampleDropOneEventPerBatch checks drop-oldest emits exactly one
// aggregated sample-drop event per batch — counting the drops across all
// subscribers and attributed to the batch's newest sample — and none for
// a batch that drops nothing.
func TestSampleDropOneEventPerBatch(t *testing.T) {
	rec := recorder.New(64)
	b := NewBroker("A")
	b.Recorder = rec
	b.Subscribe("t", 2)
	b.Subscribe("t", 3)
	batch := []Sample{{Device: "d1", Seq: 1}, {Device: "d2", Seq: 2}}
	b.PublishBatch("t", batch) // fits both: no event
	if n := len(rec.Query(recorder.Filter{Type: recorder.TypeSampleDrop})); n != 0 {
		t.Fatalf("%d sample-drop events for a batch that dropped nothing", n)
	}
	at := time.Unix(50, 0)
	batch = []Sample{{Device: "d3", Seq: 3}, {Device: "d4", Seq: 4, MeasuredAt: at, Event: 9}}
	b.PublishBatch("t", batch) // drops 2 from the first subscriber, 1 from the second
	drops := rec.Query(recorder.Filter{Type: recorder.TypeSampleDrop})
	if len(drops) != 1 {
		t.Fatalf("%d sample-drop events, want 1 per batch", len(drops))
	}
	e := drops[0]
	if e.Aux != 3 || e.Subject != "d4" || e.Cause != 9 || e.Actor != "A" || !e.Time.Equal(at) {
		t.Fatalf("sample-drop event %+v, want Aux 3 attributed to d4 (cause 9) from A at %v", e, at)
	}
}

// TestCloseWakesBlockedConsumer checks Close releases a consumer blocked
// on Ready, and that the consumer still drains what was buffered before
// the close: RecvBatch returns the rest, then 0.
func TestCloseWakesBlockedConsumer(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 4)
	b.PublishBatch("t", []Sample{{Device: "d", Seq: 1}, {Device: "d", Seq: 2}, {Device: "d", Seq: 3}})
	<-sub.Ready() // consume the publish signal so the consumer blocks

	got := make(chan []uint64, 1)
	go func() {
		_, open := <-sub.Ready()
		var seqs []uint64
		var buf [2]Sample
		for {
			n := sub.RecvBatch(buf[:])
			for _, s := range buf[:n] {
				seqs = append(seqs, s.Seq)
			}
			if n == 0 {
				break
			}
		}
		if open {
			seqs = nil // woken by a publish, not by Close
		}
		got <- seqs
	}()
	sub.Close()
	b.PublishBatch("t", []Sample{{Device: "d", Seq: 4}}) // after Close: not delivered
	select {
	case seqs := <-got:
		if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
			t.Fatalf("consumer drained %v after Close, want [1 2 3]", seqs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer blocked on Ready did not exit after Close")
	}
}

// TestConsumeDeliversUntilClose runs the blocking consumer loop the
// pipeline and broker server use against a concurrent publisher and
// checks every published sample is either delivered, in order, or
// counted as dropped, and that the newest one always arrives.
func TestConsumeDeliversUntilClose(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 64)
	const total = 5000
	type result struct{ last, delivered uint64 }
	done := make(chan result, 1)
	go func() {
		var r result
		consume(sub, nil, func(s Sample) bool {
			if s.Seq <= r.last {
				t.Errorf("sample seq %d after %d", s.Seq, r.last)
			}
			r.last = s.Seq
			r.delivered++
			return true
		})
		done <- r
	}()
	var batch [7]Sample
	for seq := uint64(1); seq <= total; {
		n := 0
		for ; n < len(batch) && seq <= total; n++ {
			batch[n] = Sample{Device: "d", Seq: seq}
			seq++
		}
		b.PublishBatch("t", batch[:n])
	}
	sub.Close()
	select {
	case r := <-done:
		if r.last != total {
			t.Fatalf("consumer saw up to seq %d, want %d", r.last, total)
		}
		if got := r.delivered + uint64(sub.Dropped()); got != total {
			t.Fatalf("%d delivered + %d dropped = %d, want %d published", r.delivered, sub.Dropped(), got, total)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consume did not return after Close")
	}
}
