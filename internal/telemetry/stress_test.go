package telemetry

import (
	"sync"
	"testing"
	"time"

	"flex/internal/power"
)

// TestBrokerConcurrencyStress hammers one broker with concurrent
// publishers, subscribers, and fault injection; run under -race this
// guards the locking discipline.
func TestBrokerConcurrencyStress(t *testing.T) {
	b := NewBroker("stress")
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// 4 publishers.
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.Publish(TopicUPS, Sample{
					Device: "UPS-1", Power: power.Watts(i), Valid: true,
					MeasuredAt: time.Unix(int64(i), int64(p)),
				})
			}
		}(p)
	}
	// 4 subscribers that churn (subscribe, read some, close).
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub := b.Subscribe(TopicUPS, 8)
				var buf [3]Sample
				for i := 0; i < 50; i++ {
					select {
					case <-sub.Ready():
						sub.RecvBatch(buf[:])
					case <-time.After(time.Millisecond):
					}
				}
				_ = sub.Dropped()
				sub.Close()
			}
		}()
	}
	// Fault injector flapping the broker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b.SetDown(i%2 == 0)
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestLatestPowerConcurrencyStress exercises the view under concurrent
// updates and reads.
func TestLatestPowerConcurrencyStress(t *testing.T) {
	lp := NewLatestPower()
	est := NewEWMAEstimator(0.3)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := Sample{Device: "d", Power: power.Watts(i), Valid: true,
					MeasuredAt: time.Unix(int64(i), int64(w))}
				lp.Update(s)
				est.Update(s)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lp.Get("d")
				lp.Snapshot()
				lp.Age("d", time.Now())
				est.Estimate("d")
				est.BoundSnapshot(-1)
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}
