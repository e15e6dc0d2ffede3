package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/emu"
	"flex/internal/placement"
	"flex/internal/power"
)

// runFleetConfig is emu.RunFleet's default timeline in the driver's
// terms: 10 rooms, room 0 loses UPS 0 at 20s and never gets it back,
// demand ramps over the first 10s, and the run ends at 60s (121 ticks).
func runFleetConfig(seed int64, workers int) fleetConfig {
	return fleetConfig{
		Rooms: 10, Controllers: 1, FailEvery: 10,
		Ramp: 20, Warm: 40, Cycle: 81, Stagger: 1, Outage: 0,
		Cycles: 1, Workers: workers, Seed: seed, Setups: 1,
	}
}

// TestOracleRunFleet: in emu.RunFleet's configuration the driver must
// reproduce RunFleet's detect and shed latencies, so what it measures is
// the program and not an artefact of the driver's own world model.
func TestOracleRunFleet(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7} {
		want, err := emu.RunFleet(ctx, emu.FleetConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runFleet(ctx, runFleetConfig(seed, defaultWorkers()), clock.Real{})
		if err != nil {
			t.Fatal(err)
		}
		if res.fails != 0 {
			t.Fatalf("seed %d: %d rooms failed: %v", seed, res.fails, res.rooms[0].failed)
		}
		eps := res.rooms[0].episodes
		if len(eps) != 1 {
			t.Fatalf("seed %d: room 0 has %d episodes, want 1", seed, len(eps))
		}
		detect := time.Duration(eps[0].detect) * tick
		shed := time.Duration(eps[0].shed) * tick
		if detect != want.DetectLatency || shed != want.ShedLatency {
			t.Fatalf("seed %d: driver detect/shed = %v/%v, RunFleet %v/%v", seed, detect, shed, want.DetectLatency, want.ShedLatency)
		}
		if want.Outage {
			t.Fatalf("seed %d: RunFleet reports an outage", seed)
		}
		// The final aggregates agree room by room: the same samples were
		// pumped and the same racks stay acted with the same recovered
		// power, which holds only if demand and actions matched tick for
		// tick. (Headroom is a float sum over a map, so it is compared to
		// a watt.)
		for i, w := range want.Snapshot.Rooms {
			g := res.snap.Rooms[i]
			if g.Pumped != w.Pumped || g.Steps != w.Steps || g.ActedRacks != w.ActedRacks || math.Abs(float64(g.CommittedHeadroom-w.CommittedHeadroom)) > 1 {
				t.Fatalf("seed %d room %d: driver %+v, RunFleet %+v", seed, i, g, w)
			}
		}
	}
}

// roomOutcome is what must not depend on the worker count.
type roomOutcome struct {
	episodes           []outage
	actions, effective int
}

func outcomes(t *testing.T, workers int) []roomOutcome {
	t.Helper()
	cfg, _ := fleetWorkload("failover-100")
	cfg.Seconds, cfg.Cycles, cfg.Setups, cfg.Seed, cfg.Workers = 0, 1, 1, 3, workers
	res, err := runFleet(context.Background(), cfg, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	if res.fails != 0 {
		t.Fatalf("%d workers: %d rooms failed", workers, res.fails)
	}
	out := make([]roomOutcome, len(res.rooms))
	for i, r := range res.rooms {
		out[i].episodes = r.episodes
		for _, a := range r.mgr.Log() {
			out[i].actions++
			if a.Effective {
				out[i].effective++
			}
		}
	}
	return out
}

// TestWorkersDeterministic: on failover-100, every room's detect and
// shed ticks and its actuator log are the same with 1 worker and with W.
func TestWorkersDeterministic(t *testing.T) {
	w := max(defaultWorkers(), 2)
	one, many := outcomes(t, 1), outcomes(t, w)
	for i := range one {
		a, b := one[i], many[i]
		if a.actions != b.actions || a.effective != b.effective || len(a.episodes) != len(b.episodes) {
			t.Fatalf("room %d: 1 worker %+v, %d workers %+v", i, a, w, b)
		}
		for k := range a.episodes {
			if a.episodes[k] != b.episodes[k] {
				t.Fatalf("room %d episode %d: 1 worker %+v, %d workers %+v", i, k, a.episodes[k], w, b.episodes[k])
			}
		}
		if a.actions == 0 {
			t.Fatalf("room %d acted on nothing", i)
		}
	}
}

// smallFailover is failover-100 cut to a few rooms and one cycle.
func smallFailover(mutate func(*world)) fleetConfig {
	cfg, _ := fleetWorkload("failover-100")
	cfg.Rooms, cfg.Seconds, cfg.Cycles, cfg.Setups, cfg.Seed, cfg.Workers = 4, 0, 1, 1, 1, 2
	cfg.mutate = mutate
	return cfg
}

func failedRooms(t *testing.T, cfg fleetConfig) (*fleetResult, map[int]bool) {
	t.Helper()
	res, err := runFleet(context.Background(), cfg, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	failed := map[int]bool{}
	for _, r := range res.rooms {
		if len(r.failed) > 0 {
			failed[r.idx] = true
		}
	}
	if len(failed) != res.fails {
		t.Fatalf("fails = %d, failed rooms %v", res.fails, failed)
	}
	return res, failed
}

func TestHealthyFleetPasses(t *testing.T) {
	if _, failed := failedRooms(t, smallFailover(nil)); len(failed) != 0 {
		t.Fatalf("failed rooms %v, want none", failed)
	}
}

// TestUnreachableRacksFail: a room whose rack managers are all
// unreachable cannot shed, so it must count as failed.
func TestUnreachableRacksFail(t *testing.T) {
	res, failed := failedRooms(t, smallFailover(func(w *world) {
		for _, rk := range w.racks {
			if err := w.rooms[1].mgr.SetReachable(rk.id, false); err != nil {
				t.Fatal(err)
			}
		}
	}))
	if !failed[1] || len(failed) != 1 {
		t.Fatalf("failed rooms %v, want exactly room 1", failed)
	}
	rep, _ := res.report()
	if rep.values["failed_share"] <= 0 {
		t.Fatalf("failed_share = %v, want > 0", rep.values["failed_share"])
	}
}

// TestWithheldUPSNotReady: a room publishing racks but no UPS samples
// must be reported not ready.
func TestWithheldUPSNotReady(t *testing.T) {
	cfg := smallFailover(func(w *world) { w.rooms[2].withholdUPS = true })
	cfg.FailEvery = 0
	res, failed := failedRooms(t, cfg)
	if !failed[2] || len(failed) != 1 {
		t.Fatalf("failed rooms %v, want exactly room 2", failed)
	}
	if got := res.rooms[2].failed[0]; got == "" {
		t.Fatal("no failure reason recorded")
	}
}

// TestTamperedPlacementFails: an assignment to a pair that does not
// exist must fail Validate and count as a failed operation.
func TestTamperedPlacementFails(t *testing.T) {
	cfg := placementWorkload()
	cfg.Seconds, cfg.Setups, cfg.Shuffles, cfg.Repeats, cfg.Window = 0.01, 1, 1, 1, 256
	cfg.tamper = func(p *placement.Placement) {
		for id := range p.Assignments {
			p.Assignments[id] = power.PDUPairID(len(p.Room.Topo.Pairs))
			return
		}
	}
	res, err := runPlacement(context.Background(), cfg, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	if res.fails != 1 || res.attempts < 3 {
		t.Fatalf("fails/attempts = %d/%d, want exactly the tampered placement failed (%v)", res.fails, res.attempts, res.failures)
	}
}

// TestBenchmarkJSONMatchesDriver: BENCHMARK.json lists exactly the
// metrics the driver reports, with the same units.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Fatalf("BENCHMARK.json lists %d metrics, driver %d", len(c.spec), len(c.defs))
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Fatalf("metric %d: BENCHMARK.json %+v, driver %s %s", i, c.spec[i], d.name, d.unit)
			}
		}
	}
}
