package controller

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/workload"
)

// sortingPlanContext is PlanContext as it was before the Planner: it
// copies and stable-sorts the racks and rebuilds the workload map on
// every call, and rebuilds every workload's candidate on every greedy
// iteration. Kept as the oracle the Planner must match action for action.
func sortingPlanContext(ctx context.Context, in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	topo := in.Topo
	if len(in.UPSPower) != len(topo.UPSes) {
		return nil, false, fmt.Errorf("controller: UPS snapshot has %d entries for %d UPSes", len(in.UPSPower), len(topo.UPSes))
	}
	est := append([]power.Watts(nil), in.UPSPower...)
	type wl struct {
		name     string
		category workload.Category
		fn       impact.Function
		total    int
		affected int
		queue    []*ManagedRack
	}
	byName := map[string]*wl{}
	var order []string
	racks := make([]ManagedRack, len(in.Racks))
	copy(racks, in.Racks)
	sort.SliceStable(racks, func(i, j int) bool {
		if racks[i].Priority != racks[j].Priority {
			return racks[i].Priority < racks[j].Priority
		}
		return racks[i].ID < racks[j].ID
	})
	for i := range racks {
		r := &racks[i]
		w, ok := byName[r.Workload]
		if !ok {
			w = &wl{name: r.Workload, category: r.Category, fn: in.Scenario.For(r.Workload, r.Category)}
			byName[r.Workload] = w
			order = append(order, r.Workload)
		}
		w.total++
		if in.Acted[r.ID] {
			w.affected++
			continue
		}
		if r.Category.Shaveable() {
			w.queue = append(w.queue, r)
		}
	}
	sort.Strings(order)
	rackPower := func(r *ManagedRack) power.Watts {
		if p, ok := in.RackPower[r.ID]; ok {
			return p
		}
		return r.Allocated
	}
	overLimit := func() bool {
		for u := range topo.UPSes {
			if in.Inactive[power.UPSID(u)] {
				continue
			}
			if est[u] > topo.UPSes[u].Capacity-in.Buffer {
				return true
			}
		}
		return false
	}
	for overLimit() {
		if ctx.Err() != nil {
			return actions, true, context.Cause(ctx)
		}
		type candidate struct {
			w   *wl
			r   *ManagedRack
			act PlannedAction
		}
		var cands []candidate
		for _, name := range order {
			w := byName[name]
			if len(w.queue) == 0 {
				continue
			}
			r := w.queue[0]
			p := rackPower(r)
			var act PlannedAction
			switch w.category {
			case workload.SoftwareRedundant:
				act = PlannedAction{Rack: r.ID, Workload: name, Kind: Shutdown, Recovered: p}
			case workload.NonRedundantCapable:
				rec := p - r.FlexPower
				if rec < 0 {
					rec = 0
				}
				act = PlannedAction{Rack: r.ID, Workload: name, Kind: Throttle, Recovered: rec, CapTarget: r.FlexPower}
			default:
				continue
			}
			act.Impact = w.fn.At(float64(w.affected+1) / float64(w.total))
			cands = append(cands, candidate{w: w, r: r, act: act})
		}
		if len(cands) == 0 {
			return actions, true, nil
		}
		best := 0
		for i := 1; i < len(cands); i++ {
			a, b := cands[i].act, cands[best].act
			switch {
			case a.Impact < b.Impact-1e-12:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered > b.Recovered:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered == b.Recovered && a.Rack < b.Rack:
				best = i
			}
		}
		chosen := cands[best]
		actions = append(actions, chosen.act)
		chosen.w.affected++
		chosen.w.queue = chosen.w.queue[1:]
		applyRecovery(topo, est, in.Inactive, chosen.r.Pair, chosen.act.Recovered)
	}
	return actions, false, nil
}

// randomPlanRoom draws a room for the planner equivalence test: a random
// redundancy design, racks of random workloads (some mixing categories),
// priorities with ties, repeated rack IDs, and power drawn so that
// impacts and recovered watts tie often.
func randomPlanRoom(t *testing.T, rng *rand.Rand) (*power.Topology, []ManagedRack, impact.Scenario) {
	t.Helper()
	x := 3 + rng.Intn(3)
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: x, Y: x - 1},
		UPSCapacity:         100 * power.KW,
		PairsPerCombination: 1 + rng.Intn(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	cats := []workload.Category{workload.SoftwareRedundant, workload.NonRedundantCapable, workload.NonRedundantNonCapable}
	nw := 1 + rng.Intn(6)
	wlCat := make([]workload.Category, nw)
	for i := range wlCat {
		wlCat[i] = cats[rng.Intn(len(cats))]
	}
	n := rng.Intn(60)
	racks := make([]ManagedRack, n)
	for i := range racks {
		w := rng.Intn(nw)
		cat := wlCat[w]
		if rng.Intn(10) == 0 {
			cat = cats[rng.Intn(len(cats))] // a workload mixing categories
		}
		id := fmt.Sprintf("r%03d", rng.Intn(3*n+1))
		alloc := power.Watts(1+rng.Intn(4)) * 5 * power.KW
		flex := alloc
		switch cat {
		case workload.SoftwareRedundant:
			flex = 0
		case workload.NonRedundantCapable:
			flex = alloc * power.Watts(rng.Intn(5)) / 5
		}
		racks[i] = ManagedRack{
			ID: id, Workload: fmt.Sprintf("w%d", w), Category: cat,
			Pair: power.PDUPairID(rng.Intn(len(topo.Pairs))), Allocated: alloc, FlexPower: flex,
			Priority: rng.Intn(3),
		}
	}
	sc := []impact.Scenario{impact.Default(), impact.Realistic1(), impact.Extreme1(), impact.Extreme2()}[rng.Intn(4)]
	return topo, racks, sc
}

// randomPlanRound draws one round's live inputs for a room.
func randomPlanRound(rng *rand.Rand, topo *power.Topology, racks []ManagedRack) PlanInput {
	in := PlanInput{
		UPSPower:  make([]power.Watts, len(topo.UPSes)),
		RackPower: map[string]power.Watts{},
		Inactive:  map[power.UPSID]bool{},
		Acted:     map[string]bool{},
		Buffer:    power.Watts(rng.Intn(3)) * power.KW,
	}
	for u := range in.UPSPower {
		in.UPSPower[u] = power.Watts(60+rng.Intn(80)) * power.KW
	}
	if rng.Intn(2) == 0 {
		u := rng.Intn(len(topo.UPSes))
		in.Inactive[power.UPSID(u)] = true
		in.UPSPower[u] = 0
	}
	for _, r := range racks {
		if rng.Intn(4) > 0 {
			in.RackPower[r.ID] = r.Allocated * power.Watts(rng.Intn(5)) / 4
		}
		if rng.Intn(6) == 0 {
			in.Acted[r.ID] = rng.Intn(4) > 0 // false entries must not count
		}
	}
	return in
}

// TestPlannerMatchesSortingPlan checks, over seeded random rooms and
// rounds, that the Planner — one kept per room and reused across rounds,
// as the controller and auditor keep theirs — and PlanContext both return
// exactly what the sorting implementation returns: the same actions in
// the same order, the same insufficient flag and error, including plans
// truncated by a context that expires after a random number of greedy
// iterations. Plan must also append behind a caller's dst prefix.
func TestPlannerMatchesSortingPlan(t *testing.T) {
	cause := errors.New("budget spent")
	var planned, short, truncated int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo, racks, sc := randomPlanRoom(t, rng)
		p := NewPlanner(topo, racks, sc)
		var dst []PlannedAction
		for round := 0; round < 8; round++ {
			in := randomPlanRound(rng, topo, racks)
			in.Topo, in.Racks, in.Scenario = topo, racks, sc
			polls := -1 // never expires
			if round%3 == 2 {
				polls = rng.Intn(6)
			}
			ctx := func() context.Context {
				if polls < 0 {
					return context.Background()
				}
				return &errAfterCtx{Context: context.Background(), left: polls, cause: cause}
			}
			want, wantInsuf, wantErr := sortingPlanContext(ctx(), in)
			switch {
			case wantErr != nil:
				truncated++
			case wantInsuf:
				short++
			case len(want) > 1:
				planned++
			}

			got, insuf, err := PlanContext(ctx(), in)
			if !reflect.DeepEqual(got, want) || insuf != wantInsuf || !errors.Is(err, wantErr) {
				t.Fatalf("seed %d round %d: PlanContext = %v %v %v, sorting plan = %v %v %v", seed, round, got, insuf, err, want, wantInsuf, wantErr)
			}

			acted := make([]bool, len(racks))
			for i, r := range racks {
				acted[i] = in.Acted[r.ID]
			}
			prefix := len(dst)
			dst, insuf, err = p.Plan(ctx(), dst, Round{
				UPSPower: in.UPSPower, RackPower: in.RackPower, Inactive: in.Inactive,
				Buffer: in.Buffer, Acted: acted,
			})
			if got := dst[prefix:]; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) || insuf != wantInsuf || !errors.Is(err, wantErr) {
				t.Fatalf("seed %d round %d: reused Planner = %v %v %v, sorting plan = %v %v %v", seed, round, got, insuf, err, want, wantInsuf, wantErr)
			}
			slots := p.Slots()
			if len(slots) != len(dst)-prefix {
				t.Fatalf("seed %d round %d: %d slots for %d actions", seed, round, len(slots), len(dst)-prefix)
			}
			for i, s := range slots {
				if a := dst[prefix+i]; racks[s].ID != a.Rack || acted[s] {
					t.Fatalf("seed %d round %d: action %d on %s has slot %d (rack %s, acted %v)", seed, round, i, a.Rack, s, racks[s].ID, acted[s])
				}
			}
			if rng.Intn(3) == 0 {
				dst = dst[:0]
			}
		}
	}
	if planned < 50 || short < 50 || truncated < 50 {
		t.Fatalf("fixtures too narrow: %d multi-action plans, %d insufficient, %d truncated", planned, short, truncated)
	}
}

// TestPlannerRejectsShortSnapshot: a UPS vector of the wrong length is an
// error and leaves dst untouched.
func TestPlannerRejectsShortSnapshot(t *testing.T) {
	topo := testRoom(t)
	p := NewPlanner(topo, testRacks(topo), impact.Default())
	dst := []PlannedAction{{Rack: "keep"}}
	out, _, err := p.Plan(context.Background(), dst, Round{UPSPower: []power.Watts{1}})
	if err == nil || len(out) != 1 || out[0].Rack != "keep" {
		t.Fatalf("Plan with 1 of 4 UPS readings = %v, %v; want an error and dst unchanged", out, err)
	}
}
