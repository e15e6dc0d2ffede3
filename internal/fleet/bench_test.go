package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/power"
	"flex/internal/rackmgr"
)

// BenchmarkAggregateOnce is the fleet-aggregate layer figure: one fold
// of 100 rooms, each with three primaries that have enforced a shed
// plan for a failed UPS whose episode is still open, into the snapshot
// and the registry gauges.
func BenchmarkAggregateOnce(b *testing.B) {
	clk := clock.NewVirtual(t0())
	f := New(Config{Clock: clk, Obs: obs.NewRegistry()})
	topo, err := power.NewRoom(power.RoomConfig{Design: power.Redundancy{X: 4, Y: 3}, UPSCapacity: 100 * power.KW, PairsPerCombination: 3})
	if err != nil {
		b.Fatal(err)
	}
	var rcs []RoomConfig
	var shards []*Shard
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("room-%03d", i)
		racks := testRacks(name, topo)
		ids := make([]string, len(racks))
		for j, r := range racks {
			ids[j] = r.ID
		}
		rc := RoomConfig{
			Name: name, Topo: topo, Racks: racks, Actuator: rackmgr.NewManager(clk, ids),
			Controllers: 3, Stranded: 5 * power.KW, Allocatable: 900 * power.KW, Buffer: power.KW,
		}
		s, err := f.AddRoom(rc)
		if err != nil {
			b.Fatal(err)
		}
		rcs, shards = append(rcs, rc), append(shards, s)
	}
	clk.Advance(time.Second)
	ups := []power.Watts{0, 130 * power.KW, 130 * power.KW, 130 * power.KW}
	for i, s := range shards {
		feed(s, rcs[i], clk.Now(), ups)
		s.Pump()
		if overdraw, enforced, _ := s.StepContext(context.Background()); !overdraw || enforced == 0 {
			b.Fatalf("room %s: overdraw %v, enforced %d", s.Name, overdraw, enforced)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := f.AggregateOnce(clk.Now())
		if snap.Rooms[0].ActedRacks == 0 || !snap.Rooms[0].OpenEpisode {
			b.Fatal("fixture lost its open episodes")
		}
	}
}
