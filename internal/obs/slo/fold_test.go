package slo_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// nameFoldPending is the auditor's pending-recovery fold as it was before
// the by-index fold: copy each controller's committed actions, dedup
// racks through a map of names, attribute through a rack → pair map.
// Kept as the oracle for TestPendingRecoveryMatchesNameFold.
func nameFoldPending(topo *power.Topology, racks []controller.ManagedRack, view *telemetry.LatestPower, ctls []*controller.Controller) []power.Watts {
	out := make([]power.Watts, len(topo.UPSes))
	pairOf := make(map[string]power.PDUPairID, len(racks))
	for _, r := range racks {
		pairOf[r.ID] = r.Pair
	}
	seen := make(map[string]bool)
	for _, c := range ctls {
		actions, lastEnforce := c.CommittedActions()
		if lastEnforce.IsZero() {
			continue
		}
		for _, act := range actions {
			if seen[act.Rack] {
				continue
			}
			seen[act.Rack] = true
			pair, ok := pairOf[act.Rack]
			if !ok {
				continue
			}
			for _, uid := range topo.Pairs[pair].UPSes {
				if _, at, ok := view.Get(topo.UPSes[uid].Name); ok && at.After(lastEnforce) {
					continue
				}
				out[uid] += act.Recovered / 2
			}
		}
	}
	return out
}

// TestPendingRecoveryMatchesNameFold drives three primaries over one
// room — one with the auditor's rack order, one with it reversed, one
// with a subset plus a rack the auditor does not bind — through seeded
// overdraw and recovery rounds, and checks after every audit tick that
// each UPS headroom series holds exactly (bit for bit) capacity −
// reading + the name-deduped pending recovery.
func TestPendingRecoveryMatchesNameFold(t *testing.T) {
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 4, Y: 3},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	racks := testRacks(topo)
	for i := range racks {
		// Uneven draws so dedup order shows in the float sums.
		racks[i].Allocated += power.Watts(i) * 137.25
	}
	reversed := make([]controller.ManagedRack, len(racks))
	for i, r := range racks {
		reversed[len(racks)-1-i] = r
	}
	extra := controller.ManagedRack{ID: "zz-extra", Workload: "websearch", Category: workload.SoftwareRedundant,
		Pair: 0, Allocated: 12 * power.KW}
	subset := append([]controller.ManagedRack{extra}, racks[len(racks)/2:]...)
	ids := []string{extra.ID}
	for _, r := range racks {
		ids = append(ids, r.ID)
	}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
		upsView, rackView := telemetry.NewLatestPower(), telemetry.NewLatestPower()
		mgr := rackmgr.NewManager(clk, ids)
		var ctls []*controller.Controller
		for i, rs := range [][]controller.ManagedRack{racks, reversed, subset} {
			ctls = append(ctls, controller.New(controller.Config{
				Name: "ctl-" + string(rune('a'+i)), Clock: clk, Topo: topo, Racks: rs,
				UPSView: upsView, RackView: rackView, Actuator: mgr,
				Scenario: impact.Realistic1(), Buffer: power.KW,
			}))
		}
		store := tsdb.NewStore(tsdb.Options{})
		aud := slo.NewAuditor(slo.Config{Store: store, ProbeEvery: -1})
		aud.Bind(slo.Bindings{
			Clock: clk, Topo: topo, Racks: racks, UPSView: upsView, RackView: rackView,
			Controllers: ctls, Scenario: impact.Realistic1(), Buffer: power.KW,
			AllocatablePower: 600 * power.KW,
		})
		ctx := context.Background()
		var shared, credited int
		for tick := 0; tick < 40; tick++ {
			clk.Advance(time.Second)
			now := clk.Now()
			ups := []power.Watts{50 * power.KW, 50 * power.KW, 50 * power.KW, 50 * power.KW}
			if rng.Intn(3) > 0 {
				down := rng.Intn(len(ups))
				for u := range ups {
					ups[u] = power.Watts(100+rng.Intn(30)) * power.KW
				}
				ups[down] = 0
			}
			for u, w := range ups {
				// Some readings stay stale so the enforcement gate both
				// credits and withholds recovery.
				if tick == 0 || rng.Intn(4) > 0 {
					upsView.Update(telemetry.Sample{Device: topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: now})
				}
			}
			for _, r := range racks {
				st, cap, _ := mgr.State(r.ID)
				p := r.Allocated * power.Watts(1+rng.Intn(4)) / 4
				switch st {
				case rackmgr.Off:
					p = 0
				case rackmgr.Throttled:
					p = cap
				}
				rackView.Update(telemetry.Sample{Device: r.ID, Power: p, Valid: true, MeasuredAt: now})
			}
			for _, i := range rng.Perm(len(ctls)) {
				if rng.Intn(3) > 0 {
					ctls[i].StepContext(ctx)
				}
			}
			aud.Tick(ctx, now)

			want := nameFoldPending(topo, racks, upsView, ctls)
			for u := range topo.UPSes {
				if want[u] > 0 {
					credited++
				}
				v, _, ok := upsView.Get(topo.UPSes[u].Name)
				if !ok {
					v = topo.UPSes[u].Capacity
				}
				head := float64(topo.UPSes[u].Capacity - v + want[u])
				s, _ := store.Lookup(tsdb.SeriesKey(slo.SeriesUPSHeadroom, [2]string{"ups", topo.UPSes[u].Name}))
				got, _ := s.Last()
				if math.Float64bits(got.Value) != math.Float64bits(head) {
					t.Fatalf("seed %d tick %d %s: headroom %v, name fold gives %v", seed, tick, topo.UPSes[u].Name, got.Value, head)
				}
			}
			claims := map[string]int{}
			for _, c := range ctls {
				for _, id := range c.ActedRacks() {
					if claims[id]++; claims[id] == 2 {
						shared++
					}
				}
			}
		}
		if shared == 0 || credited == 0 {
			t.Fatalf("seed %d: %d racks committed by two primaries, %d credited readings; the fold went untested", seed, shared, credited)
		}
	}
}

// TestAuditTickAllocations pins what a probe-free audit tick of a ready
// room allocates — nothing: the window reads, the committed-plan fold
// and the UPS readings all reuse the auditor's buffers.
func TestAuditTickAllocations(t *testing.T) {
	h := newHarness(t, slo.Config{ProbeEvery: -1})
	ctx := context.Background()
	h.feed(normalPower)
	h.aud.Tick(ctx, h.now)
	allocs := testing.AllocsPerRun(100, func() {
		h.feed(normalPower)
		h.aud.Tick(ctx, h.now)
	})
	if got := h.aud.Health(); got.State != slo.StateReady {
		t.Fatalf("fixture not ready: %v %v", got.State, got.Reasons)
	}
	if allocs != 0 {
		t.Fatalf("ready audit tick allocated %.2f times, want 0", allocs)
	}
}
