package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
)

// nameFoldHeadroom is committedHeadroom as it was before the by-slot
// fold: copy every primary's committed actions and keep the largest
// claim per rack name in a fresh map. Kept as the oracle, with one
// difference: the map fold never stored a zero-watt claim (a throttle
// whose rack already drew less than its cap), so it left such racks out
// of the acted-rack count; the oracle counts every acted rack, as
// RoomStatus.ActedRacks documents.
func nameFoldHeadroom(s *Shard) (watts float64, racks int) {
	byRack := make(map[string]float64)
	for _, c := range s.ctls {
		actions, _ := c.CommittedActions()
		for _, a := range actions {
			if w, ok := byRack[a.Rack]; !ok || float64(a.Recovered) > w {
				byRack[a.Rack] = float64(a.Recovered)
			}
		}
	}
	for _, w := range byRack {
		watts += w
	}
	return watts, len(byRack)
}

// feedRandom publishes one telemetry round with the given UPS powers and
// every rack at a random share of its allocation, so primaries that plan
// in different rounds claim different recovered watts for one rack.
func feedRandom(rng *rand.Rand, s *Shard, rc RoomConfig, at time.Time, ups []power.Watts) {
	batch := make([]telemetry.Sample, len(ups))
	for u := range ups {
		batch[u] = telemetry.Sample{Device: rc.Topo.UPSes[u].Name, Power: ups[u], Valid: true, MeasuredAt: at}
	}
	s.IngestUPS(batch)
	rb := make([]telemetry.Sample, len(rc.Racks))
	for i, r := range rc.Racks {
		rb[i] = telemetry.Sample{Device: r.ID, Power: r.Allocated * power.Watts(1+rng.Intn(4)) / 4, Valid: true, MeasuredAt: at}
	}
	s.IngestRacks(rb)
}

// randomUPS returns a normal or a failed-UPS overdraw reading.
func randomUPS(rng *rand.Rand) []power.Watts {
	if rng.Intn(3) == 0 {
		return []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW}
	}
	ups := []power.Watts{110 * power.KW, 115 * power.KW, 120 * power.KW, 125 * power.KW}
	ups[rng.Intn(len(ups))] = 0
	return ups
}

// TestCommittedHeadroomMatchesNameFold: over seeded overdraw and
// recovery rounds on rooms of different sizes with three primaries each
// (stepped in random subsets, so their committed sets and claims
// differ), every room's committed headroom and acted-rack count in the
// aggregate match the name-keyed map fold. The map fold sums in map
// order, so watts compare to a micro-watt.
func TestCommittedHeadroomMatchesNameFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk, Obs: obs.NewRegistry()})
	var rcs []RoomConfig
	var shards []*Shard
	for i, pairs := range []int{1, 3, 2} {
		rc := testRoomConfig(t, fmt.Sprintf("room-%d", i), clk)
		topo, err := power.NewRoom(power.RoomConfig{Design: power.Redundancy{X: 4, Y: 3}, UPSCapacity: 100 * power.KW, PairsPerCombination: pairs})
		if err != nil {
			t.Fatal(err)
		}
		rc.Topo, rc.Racks = topo, testRacks(rc.Name, topo)
		ids := make([]string, len(rc.Racks))
		for j, r := range rc.Racks {
			ids[j] = r.ID
		}
		rc.Actuator = rackmgr.NewManager(clk, ids)
		rc.Controllers = 3
		s, err := f.AddRoom(rc)
		if err != nil {
			t.Fatal(err)
		}
		rcs, shards = append(rcs, rc), append(shards, s)
	}
	ctx := context.Background()
	var shared int
	for round := 0; round < 60; round++ {
		clk.Advance(time.Second)
		for i, s := range shards {
			feedRandom(rng, s, rcs[i], clk.Now(), randomUPS(rng))
			s.Pump()
			for _, c := range s.ctls {
				if rng.Intn(2) == 0 {
					c.StepContext(ctx)
				}
			}
		}
		snap := f.AggregateOnce(clk.Now())
		var total power.Watts
		for i, s := range shards {
			wantW, wantN := nameFoldHeadroom(s)
			got := snap.Rooms[i]
			if got.ActedRacks != wantN || math.Abs(float64(got.CommittedHeadroom)-wantW) > 1e-6 {
				t.Fatalf("round %d %s: headroom %v over %d racks, name fold %v over %d",
					round, s.Name, got.CommittedHeadroom, got.ActedRacks, wantW, wantN)
			}
			total += got.CommittedHeadroom
			claims := map[string]int{}
			for _, c := range s.ctls {
				for _, id := range c.ActedRacks() {
					if claims[id]++; claims[id] == 2 {
						shared++
					}
				}
			}
		}
		if snap.CommittedHeadroom != total {
			t.Fatalf("round %d: fleet headroom %v, rooms sum to %v", round, snap.CommittedHeadroom, total)
		}
	}
	if shared == 0 {
		t.Fatal("no rack was ever committed by two primaries; the dedup went untested")
	}
}

// TestAggregateConcurrentWithShards runs two goroutines calling
// AggregateOnce while every shard's own loop pumps and steps through
// overdraw and recovery, so the shared fold scratch, the bound room
// gauges and the controllers' committed sets are all reached from
// several goroutines at once. Meant for -race.
func TestAggregateConcurrentWithShards(t *testing.T) {
	const rooms = 4
	f := New(Config{Clock: clock.Real{}, Obs: obs.NewRegistry()})
	var rcs []RoomConfig
	var shards []*Shard
	for i := 0; i < rooms; i++ {
		rc := testRoomConfig(t, fmt.Sprintf("room-%d", i), clock.Real{})
		rc.Controllers = 3
		rc.Interval = time.Millisecond
		s, err := f.AddRoom(rc)
		if err != nil {
			t.Fatal(err)
		}
		rcs, shards = append(rcs, rc), append(shards, s)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, s := range shards {
		if err := s.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var pubs sync.WaitGroup
	for i := range shards {
		pubs.Add(1)
		go func(i int) {
			defer pubs.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				feedRandom(rng, shards[i], rcs[i], time.Now(), randomUPS(rng))
				time.Sleep(200 * time.Microsecond)
			}
		}(i)
	}
	var aggs sync.WaitGroup
	sawActed := make([]bool, 2)
	for g := range sawActed {
		aggs.Add(1)
		go func(g int) {
			defer aggs.Done()
			// Aggregate until a fold has seen committed actions, at least
			// 200 times and at most until the deadline.
			deadline := time.Now().Add(20 * time.Second)
			for n := 0; (n < 200 || !sawActed[g]) && time.Now().Before(deadline); n++ {
				snap := f.AggregateOnce(time.Now())
				for _, r := range snap.Rooms {
					if r.ActedRacks > 0 {
						sawActed[g] = true
					}
					if r.CommittedHeadroom < 0 || r.ActedRacks > len(rcs[0].Racks) {
						t.Errorf("room %s: headroom %v over %d racks", r.Name, r.CommittedHeadroom, r.ActedRacks)
						return
					}
				}
			}
		}(g)
	}
	aggs.Wait()
	close(stop)
	pubs.Wait()
	for _, s := range shards {
		s.Stop()
	}
	for g, ok := range sawActed {
		if !ok {
			t.Fatalf("aggregator %d never saw a committed action", g)
		}
	}
}
